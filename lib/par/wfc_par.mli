(** Domain-level parallelism for subdivision.

    A process-global worker pool ({!Pool}) plus the configuration knob that
    decides whether the parallel code path in [Sds.subdivide] is taken at
    all. The solvability search itself is always sequential. Parallelism is
    strictly opt-in:

    - the default degree is read from the [WFC_DOMAINS] environment
      variable (absent, empty, unparsable, or [<= 1] all mean 1 — fully
      sequential, byte-for-byte the historical engine);
    - [wfc --domains N] and {!set_domains} override it at run time.

    With [domains () = 1] nothing is ever spawned and {!run_jobs} runs the
    thunks inline, so sequential users pay nothing.

    The worker pool is created lazily on the first parallel batch and
    resized (teardown + respawn) when {!set_domains} asks for more
    domains than it has; it is torn down at exit. *)

module Chan = Chan
module Deque = Deque
module Pool = Pool

val domains : unit -> int
(** Current configured parallelism degree, [>= 1]. *)

val set_domains : int -> unit
(** Set the degree for subsequent batches. Values [< 1] are clamped to 1.
    Safe to call between batches; must not be called from inside a job. *)

val run_jobs : ?domains:int -> (unit -> 'a) array -> 'a array
(** Execute independent thunks on up to [domains] domains (default
    {!domains}[ ()]), returning results in input order; exceptions
    propagate like {!Pool.run}. [domains <= 1], a batch of size [< 2], or
    a call from inside another job all run sequentially inline. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [run_jobs] over [fun () -> f a.(i)]: an
    order-preserving parallel map. *)

val shutdown : unit -> unit
(** Tear down the global pool (joins the workers). Also registered with
    [at_exit]. A later parallel batch recreates the pool. *)

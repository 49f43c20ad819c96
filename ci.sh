#!/bin/sh
# Tier-1 gate: build, full test suite, quick benchmark with machine-readable
# timings (written to BENCH_ci.json, which is gitignored), and a smoke test
# of the observability pipeline: `wfc solve --json` must produce a
# wfc.obs.v1 report that the repo's own validator accepts, with the known
# verdict for 2-process consensus and a nonzero node count. The bench
# report goes through the same validator, so the two JSON producers cannot
# drift apart. Finally the trace pipeline: record a seeded emulation as a
# wfc.trace.v1 trace, replay it, validate both through check-json, and
# require the replayed canonical trace to be byte-identical to the
# recording. Bad arguments must end in a usage error, never a crash or a
# silently started run: an unknown `wfc solve --task`, the deleted
# `--solvers`, `--domains`, `serve --json`, `--no-symmetry` and
# `--no-collapse` options, the deleted `store migrate` and `store rebuild`
# subcommands and an unknown bench flag are all checked.
# Last, the serving smoke: a daemon's cold and warm answers must be
# byte-identical to an inline solve's canonical verdict, a SIGKILLed
# daemon must leave a store that verifies clean and a stale socket the
# next daemon replaces, and two distinct concurrent cold queries must both
# be computed by the daemon's one solver thread. The models leg closes the loop on computation models:
# one task solved under two models (wait-free / k-set:2) must yield two
# distinct verdicts, each cacheable and re-served warm by the daemon
# byte-identically to its inline baseline, and so must one level-2
# question under t-resilient:1. The storage leg exercises the
# sharded store at scale: tree-walking ls/verify over thousands of
# seeded records, crash recovery after a SIGKILL mid-put, LRU cache-hit
# counters, and verdict byte-identity between a cold solve and a warm
# sharded store. A wfc.store.v1 record is an unknown schema to check-json.
# In a git checkout, the wfc.opam that the build regenerates from
# dune-project must equal the committed one.
set -eux

dune build
# dune regenerates wfc.opam from dune-project on every build: in a git
# checkout, the regenerated file must be the committed one
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  git diff --exit-code HEAD -- wfc.opam
fi
dune runtest --force
dune exec bench/main.exe -- --quick --json BENCH_ci.json
dune exec bin/wfc_cli.exe -- check-json BENCH_ci.json
# the bench report carries its machine and git stamp
grep '"git_sha"' BENCH_ci.json > /dev/null

dune exec bin/wfc_cli.exe -- solve --task consensus --procs 2 --max-level 2 \
  --json SOLVE_ci.json
dune exec bin/wfc_cli.exe -- check-json SOLVE_ci.json \
  --expect-verdict unsolvable --min-nodes 1
rm -f SOLVE_ci.json

# usage errors: an unknown task is a cmdliner usage error (non-zero, not
# the 125 of an uncaught exception, no "internal error"), so are the
# deleted `serve --solvers`, `serve --json` (the shutdown report; `wfc
# stats --json` writes the same wfc.obs.v1 report live), `solve
# --domains`, the single-reducer switches `solve --no-symmetry` and
# `query --no-collapse`, `store migrate` and `store rebuild` (none of them
# may create the store or the socket), and an unknown bench flag exits 2
# before any experiment starts
RC=0
./_build/default/bin/wfc_cli.exe solve --task bogus --procs 2 > USAGE_ci.txt 2>&1 || RC=$?
test "$RC" -ne 0
test "$RC" -ne 125
if grep -q 'internal error' USAGE_ci.txt; then exit 1; fi
grep -q 'consensus' USAGE_ci.txt
for ARGS in "serve --socket ci_usage.sock --store ci_usage_store --solvers 2" \
  "serve --socket ci_usage.sock --store ci_usage_store --json X.json" \
  "solve --task consensus --procs 2 --domains 2" \
  "solve --task consensus --procs 2 --no-symmetry" \
  "query --task consensus --procs 2 --socket ci_usage.sock --no-collapse" \
  "store migrate --store ci_usage_store" \
  "store rebuild --store ci_usage_store"; do
  RC=0
  # shellcheck disable=SC2086
  ./_build/default/bin/wfc_cli.exe $ARGS > USAGE_ci.txt 2>&1 || RC=$?
  test "$RC" -ne 0
  if grep -q 'internal error' USAGE_ci.txt; then exit 1; fi
done
test ! -e ci_usage.sock
test ! -e ci_usage_store
RC=0
./_build/default/bench/main.exe --bogus-flag > USAGE_ci.txt 2>&1 || RC=$?
test "$RC" -eq 2
grep -q '^usage:' USAGE_ci.txt
rm -f USAGE_ci.txt

# search-engine smoke (DESIGN §14): the default solve runs the plain
# canonical engine first and falls through to the reduced engine only on
# a level the plain engine leaves open within its allowance. A
# refutation-heavy task it settles, set-consensus 3/2 at level 1, must
# answer the exact canonical bytes of `--search-trace` (the plain engine
# alone) and build no reducer: its report has no solvability.autos span.
PRUNE_ARGS="--task set-consensus --procs 3 --param 2 --max-level 1"
# shellcheck disable=SC2086
dune exec bin/wfc_cli.exe -- solve $PRUNE_ARGS \
  --verdict-out VERDICT_pr_on.json --stats --json PRUNE_on.json > /dev/null
# shellcheck disable=SC2086
dune exec bin/wfc_cli.exe -- solve $PRUNE_ARGS --search-trace \
  --verdict-out VERDICT_pr_off.json > /dev/null
cmp VERDICT_pr_on.json VERDICT_pr_off.json
dune exec bin/wfc_cli.exe -- check-json PRUNE_on.json
grep '"solvability.search"' PRUNE_on.json
if grep '"solvability.autos"' PRUNE_on.json; then
  echo "ci: a level the plain engine settles built its reducers" >&2
  exit 1
fi
# set-consensus 4/3 at level 1 outgrows the allowance, so the reducers
# must run: an unsolvable verdict, the solvability.autos phase span, the
# three wfc.obs.v1 reducer counters and one level counted as reduced in
# the --stats --json report. (The plain engine alone never finishes this
# level, so the reducers' "at most half the plain nodes" gate is
# test_prune's "counters and node reduction", on set-consensus 3/2.)
dune exec bin/wfc_cli.exe -- solve --task set-consensus --procs 4 --param 3 --max-level 1 \
  --stats --json PRUNE_red.json > /dev/null
dune exec bin/wfc_cli.exe -- check-json PRUNE_red.json --expect-verdict unsolvable
grep '"solvability.autos"' PRUNE_red.json
grep '"solvability.symmetry.orbits": [1-9]' PRUNE_red.json
grep '"solvability.symmetry.pruned": [1-9]' PRUNE_red.json
grep '"solvability.collapse.schedule_len": [1-9]' PRUNE_red.json
grep '"solvability.reduced.levels": 1,\{0,1\}$' PRUNE_red.json
# a root-refuted instance: 3-process consensus dies in propagation at
# every level, so it answers the same bytes under both engines and builds
# no reducer (its report has no solvability.autos span)
ROOT_ARGS="--task consensus --procs 3 --max-level 2"
# shellcheck disable=SC2086
dune exec bin/wfc_cli.exe -- solve $ROOT_ARGS \
  --verdict-out VERDICT_pr_root_on.json --json PRUNE_root_on.json > /dev/null
# shellcheck disable=SC2086
dune exec bin/wfc_cli.exe -- solve $ROOT_ARGS --search-trace \
  --verdict-out VERDICT_pr_root_off.json > /dev/null
cmp VERDICT_pr_root_on.json VERDICT_pr_root_off.json
grep '"solvability.propagate"' PRUNE_root_on.json
if grep '"solvability.autos"' PRUNE_root_on.json; then
  echo "ci: a root-refuted level built its reducers" >&2
  exit 1
fi
rm -f VERDICT_pr_on.json VERDICT_pr_off.json PRUNE_on.json PRUNE_red.json \
  VERDICT_pr_root_on.json VERDICT_pr_root_off.json PRUNE_root_on.json

dune exec bin/wfc_cli.exe -- trace --seed 3 -p 3 -b 2 --crash 1 -o TRACE_ci.json
dune exec bin/wfc_cli.exe -- replay TRACE_ci.json -o REPLAY_ci.json
dune exec bin/wfc_cli.exe -- check-json TRACE_ci.json
dune exec bin/wfc_cli.exe -- check-json REPLAY_ci.json
cmp TRACE_ci.json REPLAY_ci.json
rm -f TRACE_ci.json REPLAY_ci.json

# serving smoke: the daemon's answers must be byte-identical to an inline
# solve. Baseline the canonical verdict with `solve --verdict-out`, start a
# daemon on a private socket/store, ask the same question cold (computed)
# and warm (store hit), diff all three, validate the store record through
# check-json, and shut down cleanly. Then the crash-safety leg: SIGKILL the
# daemon, check the store still loads and verifies, and confirm a new
# daemon replaces the stale socket.
WFC=./_build/default/bin/wfc_cli.exe
SERVE_SOCK=ci_serve.sock
SERVE_STORE=ci_serve_store
rm -rf "$SERVE_SOCK" "$SERVE_STORE"
"$WFC" solve --task set-consensus --procs 3 --param 2 \
  --max-level 1 --verdict-out VERDICT_solve.json > /dev/null
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$WFC" query --task set-consensus --procs 3 --param 2 \
  --max-level 1 --socket "$SERVE_SOCK" --verdict-out VERDICT_cold.json | grep 'source=computed'
"$WFC" query --task set-consensus --procs 3 --param 2 \
  --max-level 1 --socket "$SERVE_SOCK" --verdict-out VERDICT_warm.json | grep 'source=store'
cmp VERDICT_solve.json VERDICT_cold.json
cmp VERDICT_solve.json VERDICT_warm.json
# the record now lives under a two-level shard; resolve its path with
# store ls, never a directory glob
STORE_REC="$SERVE_STORE/$("$WFC" store ls --store "$SERVE_STORE" --json \
  | grep -o '"rel": "[^"]*"' | head -1 | sed 's/"rel": "//;s/"$//')"
"$WFC" check-json "$STORE_REC" \
  --expect-verdict unsolvable --min-nodes 1
# the same record in the pre-model wfc.store.v1 form (v1 tag, no "model"
# key) is no longer a store record: check-json calls it an unknown schema
sed -e '/"model":/d' -e 's/"wfc.store.v2"/"wfc.store.v1"/' "$STORE_REC" > REC_v1.json
RC=0
"$WFC" check-json REC_v1.json || RC=$?
test "$RC" -eq 4
rm -f REC_v1.json
"$WFC" store verify --store "$SERVE_STORE"
"$WFC" serve --stop --socket "$SERVE_SOCK"
wait $SERVE_PID

# crash safety: a SIGKILLed daemon must leave a loadable store and a stale
# socket that the next daemon replaces
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
kill -9 $SERVE_PID
wait $SERVE_PID || true
test -S "$SERVE_SOCK"
"$WFC" store verify --store "$SERVE_STORE"
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$WFC" query --task set-consensus --procs 3 --param 2 \
  --max-level 1 --socket "$SERVE_SOCK" --verdict-out VERDICT_after.json | grep 'source=store'
cmp VERDICT_solve.json VERDICT_after.json
"$WFC" serve --stop --socket "$SERVE_SOCK"
wait $SERVE_PID
rm -rf "$SERVE_SOCK" "$SERVE_STORE" VERDICT_solve.json VERDICT_cold.json \
  VERDICT_warm.json VERDICT_after.json

# scheduler smoke: two DISTINCT cold questions issued concurrently against
# a fresh store must both come back as computed verdicts — one is solved
# while the other waits in the queue for the one solver thread (the gated
# unit test asserts the queueing; this leg asserts the end-to-end
# behaviour over the real socket)
SERVE_STORE2=ci_serve_store2
rm -rf "$SERVE_SOCK" "$SERVE_STORE2"
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE2" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$WFC" query --task consensus --procs 2 --max-level 1 \
  --socket "$SERVE_SOCK" > QUERY_a.txt &
QA_PID=$!
"$WFC" query --task renaming --procs 2 --param 3 --max-level 1 \
  --socket "$SERVE_SOCK" > QUERY_b.txt &
QB_PID=$!
wait $QA_PID
wait $QB_PID
grep 'source=computed' QUERY_a.txt
grep 'source=computed' QUERY_b.txt
"$WFC" store ls --store "$SERVE_STORE2" --json | grep -o '"count": 2'
"$WFC" serve --stop --socket "$SERVE_SOCK"
wait $SERVE_PID
rm -rf "$SERVE_SOCK" "$SERVE_STORE2" QUERY_a.txt QUERY_b.txt

# models smoke: one task under two models must be two independent questions
# all the way down. consensus(2) at level 1 is the acceptance pair — UNSOLVABLE
# wait-free, SOLVABLE under k-set:2 (only lock-step runs survive the
# restriction). Baseline both verdicts inline, then have one daemon compute
# both cold, re-serve both warm from its (task, model)-keyed store, and
# require every daemon answer byte-identical to the inline verdict for the
# same model. consensus(3) up to level 2 under t-resilient:1 (SOLVABLE with 2
# rounds) rides along: level 1 alone cannot tell an admitted set built level
# by level from a per-facet walk of every level. The store ends up holding
# the three records side by side and `store verify` stays clean.
SERVE_STORE3=ci_serve_store3
rm -rf "$SERVE_SOCK" "$SERVE_STORE3"
"$WFC" models
"$WFC" solve --task consensus --procs 2 --max-level 1 \
  --verdict-out VERDICT_wf.json | grep '^UNSOLVABLE'
"$WFC" solve --task consensus --procs 2 --max-level 1 --model k-set:2 \
  --verdict-out VERDICT_kset.json | grep '^SOLVABLE'
"$WFC" solve --task consensus --procs 3 --max-level 2 --model t-resilient:1 \
  --verdict-out VERDICT_tres.json | grep '^SOLVABLE with 2'
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE3" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$WFC" query --task consensus --procs 2 --max-level 1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_wf_cold.json | grep 'source=computed'
"$WFC" query --task consensus --procs 2 --max-level 1 --model k-set:2 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_kset_cold.json | grep 'source=computed'
"$WFC" query --task consensus --procs 2 --max-level 1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_wf_warm.json | grep 'source=store'
"$WFC" query --task consensus --procs 2 --max-level 1 --model k-set:2 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_kset_warm.json | grep 'source=store'
"$WFC" query --task consensus --procs 3 --max-level 2 --model t-resilient:1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_tres_cold.json | grep 'source=computed'
"$WFC" query --task consensus --procs 3 --max-level 2 --model t-resilient:1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_tres_warm.json | grep 'source=store'
cmp VERDICT_wf.json VERDICT_wf_cold.json
cmp VERDICT_wf.json VERDICT_wf_warm.json
cmp VERDICT_kset.json VERDICT_kset_cold.json
cmp VERDICT_kset.json VERDICT_kset_warm.json
cmp VERDICT_tres.json VERDICT_tres_cold.json
cmp VERDICT_tres.json VERDICT_tres_warm.json
"$WFC" store ls --store "$SERVE_STORE3" --json | grep -o '"count": 3'
"$WFC" store ls --store "$SERVE_STORE3" | grep 'k-set:2'
"$WFC" store ls --store "$SERVE_STORE3" | grep 't-resilient:1'
"$WFC" store verify --store "$SERVE_STORE3"
"$WFC" serve --stop --socket "$SERVE_SOCK"
wait $SERVE_PID
rm -rf "$SERVE_SOCK" "$SERVE_STORE3" VERDICT_wf.json VERDICT_kset.json \
  VERDICT_wf_cold.json VERDICT_kset_cold.json VERDICT_wf_warm.json \
  VERDICT_kset_warm.json VERDICT_tres.json VERDICT_tres_cold.json \
  VERDICT_tres_warm.json

# telemetry smoke: run a daemon with the full event log at debug level and
# a zero slow-query threshold (every query logs a slow_query line), push
# cold/warm/coalesced traffic through it, and require (a) the verdict bytes
# stay identical to an inline solve — telemetry rides the envelope, never
# the record — (b) the JSONL event log and `wfc stats --json` both validate
# through check-json, (c) the human `wfc stats` view is the daemon header
# plus the counters/timers/spans layout of every `--stats`, the solver's
# span tree included, and (d) the Prometheus exposition renders counters
# and histogram summaries. The warm query must have reused the task the
# cold one built: `serve.task_memo.hits` is at least 1, and the header and
# the exposition both carry the task memo's size and the sizes of the
# solver's memos, which the cold solves filled. The daemon is stopped by
# SIGTERM, the way a service manager stops it.
SERVE_STORE4=ci_serve_store4
SERVE_LOG=ci_serve_log.jsonl
rm -rf "$SERVE_SOCK" "$SERVE_STORE4" "$SERVE_LOG"
"$WFC" solve --task set-consensus --procs 3 --param 2 --max-level 1 \
  --verdict-out VERDICT_tel_inline.json > /dev/null
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE4" \
  --log "$SERVE_LOG" --log-level debug --slow-ms 0 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
# pong now carries daemon version + uptime
"$WFC" query --ping --socket "$SERVE_SOCK" | grep 'pong version='
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_tel_cold.json > QUERY_tel_cold.txt
grep 'source=computed' QUERY_tel_cold.txt
grep 'timing:' QUERY_tel_cold.txt
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_tel_warm.json | grep 'source=store'
cmp VERDICT_tel_inline.json VERDICT_tel_cold.json
cmp VERDICT_tel_inline.json VERDICT_tel_warm.json
# coalesced burst on a fresh question: both answers still byte-identical
"$WFC" query --task renaming --procs 2 --param 3 --max-level 1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_tel_a.json > QUERY_tel_a.txt &
QA_PID=$!
"$WFC" query --task renaming --procs 2 --param 3 --max-level 1 \
  --socket "$SERVE_SOCK" --verdict-out VERDICT_tel_b.json > QUERY_tel_b.txt &
QB_PID=$!
wait $QA_PID
wait $QB_PID
grep -E 'source=(computed|coalesced|store)' QUERY_tel_a.txt
grep -E 'source=(computed|coalesced|store)' QUERY_tel_b.txt
cmp VERDICT_tel_a.json VERDICT_tel_b.json
# the I/O loop under concurrent clients: eight `wfc query` processes at
# once, four distinct cold questions each asked twice, so one loop serves
# overlapping connections, coalesced twins and store hits side by side. Each answer must come from the daemon, each pair must agree byte for
# byte, and each must equal an inline solve.
CONC_TASKS="consensus identity approx tas"
for task in $CONC_TASKS; do
  "$WFC" solve --task "$task" --procs 2 --param 2 --max-level 1 \
    --verdict-out "VERDICT_conc_${task}_inline.json" > /dev/null
done
CONC_PIDS=
for task in $CONC_TASKS; do
  for copy in a b; do
    "$WFC" query --task "$task" --procs 2 --param 2 --max-level 1 \
      --socket "$SERVE_SOCK" --verdict-out "VERDICT_conc_${task}_$copy.json" \
      > "QUERY_conc_${task}_$copy.txt" &
    CONC_PIDS="$CONC_PIDS $!"
  done
done
for pid in $CONC_PIDS; do
  wait "$pid"
done
for task in $CONC_TASKS; do
  for copy in a b; do
    grep -E 'source=(computed|coalesced|store)' "QUERY_conc_${task}_$copy.txt"
  done
  cmp "VERDICT_conc_${task}_a.json" "VERDICT_conc_${task}_b.json"
  cmp "VERDICT_conc_${task}_inline.json" "VERDICT_conc_${task}_a.json"
done
# live introspection: human table, validated JSON report, Prometheus text
"$WFC" stats --socket "$SERVE_SOCK" > STATS_ci.txt
grep 'daemon: version=.* task_memo=[0-9]*/[0-9]*$' STATS_ci.txt
# the open connections and their cap, ahead of the task memo
grep 'daemon: version=.* connections=[1-9][0-9]*/128 task_memo=' STATS_ci.txt
# ... and the solver's memo sizes, which the cold solves filled
grep 'daemon: version=.* lift_memo=[0-9]* sds_memo=[1-9][0-9]* setup_memo=[1-9]' STATS_ci.txt
# the warm query above reused the task the cold one built
grep -E '^ +serve\.task_memo\.hits +[1-9]' STATS_ci.txt
grep '^counters$' STATS_ci.txt
grep '^timers$' STATS_ci.txt
grep '^spans$' STATS_ci.txt
"$WFC" stats --socket "$SERVE_SOCK" --json STATS_ci.json > /dev/null
"$WFC" check-json STATS_ci.json
"$WFC" stats --socket "$SERVE_SOCK" --prometheus > STATS_ci.prom
grep '^wfc_serve_requests ' STATS_ci.prom
grep '^# TYPE wfc_serve_latency_seconds summary$' STATS_ci.prom
grep '^wfc_serve_latency_seconds_count ' STATS_ci.prom
grep '^wfc_task_memo_size [0-9]' STATS_ci.prom
grep '^wfc_connections_open [1-9]' STATS_ci.prom
grep '^wfc_setup_memo_size [1-9]' STATS_ci.prom
# stop this daemon by SIGTERM instead of `serve --stop`: it must exit 0
# within 5 s, unlink its socket and log serve.stop (checked below)
kill -TERM "$SERVE_PID"
for _ in $(seq 1 50); do
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "wfc serve still running 5 s after SIGTERM" >&2
  kill -KILL "$SERVE_PID"
  exit 1
fi
wait "$SERVE_PID"
test ! -e "$SERVE_SOCK"
# the event log is a valid wfc.log.v1 stream with the lifecycle on record
"$WFC" check-json "$SERVE_LOG"
grep '"event":"serve.start"' "$SERVE_LOG" > /dev/null
grep '"event":"query"' "$SERVE_LOG" > /dev/null
grep '"event":"slow_query"' "$SERVE_LOG" > /dev/null
grep '"event":"serve.stop"' "$SERVE_LOG" > /dev/null
rm -rf "$SERVE_SOCK" "$SERVE_STORE4" "$SERVE_LOG" STATS_ci.json STATS_ci.txt STATS_ci.prom \
  VERDICT_tel_inline.json VERDICT_tel_cold.json VERDICT_tel_warm.json \
  VERDICT_tel_a.json VERDICT_tel_b.json QUERY_tel_cold.txt QUERY_tel_a.txt \
  QUERY_tel_b.txt VERDICT_conc_*.json QUERY_conc_*.txt

# storage engine leg: the sharded, cache-tiered store at scale, indexed by
# nothing but its directory tree. Seed thousands of records, list and
# verify them by walking the tree, SIGKILL a bulk seeding mid-put and
# require the store to still verify clean (atomic temps: crash debris is
# never a torn record), then
# byte identity — one question answered through a cold solve and a warm
# sharded store must render cmp-identical verdict bytes — and the daemon's
# decoded-record LRU showing real cache hits in its stats.
ST=ci_storage_store
rm -rf "$ST"
"$WFC" store seed --store "$ST" --count 2000
"$WFC" store ls --store "$ST" --json | grep -o '"count": 2000'
"$WFC" store verify --store "$ST" --json | grep -o '"valid": 2000'
"$WFC" store ls --store "$ST" > LS_a.txt
"$WFC" store ls --store "$ST" > LS_b.txt
cmp LS_a.txt LS_b.txt
rm -f LS_a.txt LS_b.txt
# records live under two-level shards, never the store root
test "$(find "$ST" -maxdepth 1 -name '*.json' | wc -l)" -eq 0
# simulated crash: kill a bulk seeding mid-put. Atomicity means no record
# can exist torn under its final name, so verify must pass immediately,
# and gc reaps whatever temp the kill orphaned
"$WFC" store seed --store "$ST" --count 100000 &
SEED_PID=$!
sleep 1
kill -9 $SEED_PID
wait $SEED_PID || true
"$WFC" store verify --store "$ST"
"$WFC" store gc --store "$ST"
"$WFC" store verify --store "$ST" --json | grep -o '"stray_tmp": 0'
rm -rf "$ST"

# byte identity between a cold solve and a warm sharded store: a second
# `solve --store` and a `query --no-daemon` both answer from the record the
# first solve filed, and an inline query on a fresh store solves again —
# every --verdict-out file cmp-identical to the first solve's
SB=ci_store_sharded
SB_FRESH=ci_store_sharded_fresh
rm -rf "$SB" "$SB_FRESH"
"$WFC" solve --task set-consensus --procs 3 --param 2 --max-level 1 \
  --store "$SB" --verdict-out VERDICT_st_base.json > /dev/null
"$WFC" solve --task set-consensus --procs 3 --param 2 --max-level 1 \
  --store "$SB" --verdict-out VERDICT_st_hit.json | grep 'verdict from store'
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --no-daemon --store "$SB" --verdict-out VERDICT_st_warm.json 2>/dev/null \
  | grep 'source=store'
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --no-daemon --store "$SB_FRESH" --verdict-out VERDICT_st_inline.json 2>/dev/null \
  | grep 'source=inline'
cmp VERDICT_st_base.json VERDICT_st_hit.json
cmp VERDICT_st_base.json VERDICT_st_warm.json
cmp VERDICT_st_base.json VERDICT_st_inline.json
rm -rf "$SB" "$SB_FRESH" VERDICT_st_base.json VERDICT_st_hit.json \
  VERDICT_st_warm.json VERDICT_st_inline.json

# the daemon's decoded-record LRU: repeated warm queries answer from
# memory — the storage.cache.hit counter must be live in the stats report
SERVE_STORE5=ci_serve_store5
rm -rf "$SERVE_SOCK" "$SERVE_STORE5"
"$WFC" serve --socket "$SERVE_SOCK" --store "$SERVE_STORE5" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if "$WFC" query --ping --socket "$SERVE_SOCK" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --socket "$SERVE_SOCK" | grep 'source=computed'
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --socket "$SERVE_SOCK" | grep 'source=store'
"$WFC" query --task set-consensus --procs 3 --param 2 --max-level 1 \
  --socket "$SERVE_SOCK" | grep 'source=store'
"$WFC" stats --socket "$SERVE_SOCK" --json STATS_storage.json > /dev/null
CACHE_HITS=$(grep -o '"storage.cache.hit": [0-9]*' STATS_storage.json | grep -o '[0-9]*$')
test "$CACHE_HITS" -ge 1
"$WFC" serve --stop --socket "$SERVE_SOCK"
wait $SERVE_PID
rm -rf "$SERVE_SOCK" "$SERVE_STORE5" STATS_storage.json

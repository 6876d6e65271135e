#!/usr/bin/env bash
# Builds the benchmark and runs it on one CPU under SCHED_BATCH.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--json PATH]
#       every workload (or one) with tracing off: the end-to-end metrics
#   benchmark/run.sh trace [...]          (or --trace 1)
#       the traced run: rate ladder, span self times, layer probes
#   benchmark/run.sh compare A.json B.json
#       one verdict per (workload, end-to-end metric) pair
#
# Exits non-zero when the build fails or an output check does not hold.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Build into target/benchmark unless the caller chose a target directory, so the
# root's `/target` ignore rule covers everything this script leaves behind.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/benchmark"

if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi

# One CPU for the whole process.  With two, the scheduler sometimes puts the
# generator and the worker on one CPU and sometimes on two, and a cross-CPU wake-up
# costs ~20 us in this VM: the median sojourn time then flips tenfold between runs of
# the same commit.  Pinned, every thread shares one CPU on every run (README.md,
# "Machine sizing").
launch=()
cpu=$(( $(nproc --all) - 1 ))
if command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
    launch=(taskset -c "$cpu")
else
    echo "run.sh: cannot pin to CPU $cpu; latency figures will not repeat" >&2
fi

# SCHED_BATCH for every thread.  Under the default policy a woken worker preempts the
# generator that woke it or does not, as the kernel's wake-up preemption heuristic
# decides from run to run; one commit's mean sojourn time then spreads 15 % where it
# spreads 10 % or less without that choice.  A batch thread never preempts on wake-up:
# the worker runs when the generator sleeps, every time.  Needs no privilege.
if command -v chrt >/dev/null && chrt -b 0 true 2>/dev/null; then
    launch=(chrt -b 0 ${launch[@]+"${launch[@]}"})
else
    echo "run.sh: cannot set SCHED_BATCH; latency figures will repeat less well" >&2
fi

exec ${launch[@]+"${launch[@]}"} "$bin" --out "$CARGO_TARGET_DIR/out" "$@"

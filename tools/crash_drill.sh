#!/bin/sh
# Real-process crash drill for the grading service journal.
#
#   sh tools/crash_drill.sh <grading_service binary> [seed]
#
# The halt_after_ticks recovery tests stop the drain at a tick boundary.
# This drill kills a real OS process instead: it starts grading_service
# with --journal-dir as a child, sends it SIGKILL once the journal file
# passes a byte threshold, restarts it with --recover, and requires the
# recovered report (minus the `journal:` and `#` lines) and the journal
# to be byte-identical to an uninterrupted run's. The kill lands wherever
# the process happens to be: mid-tick, mid-grade, or mid-write.
#
# Three thresholds are drawn from the seed, between 15% and 85% of the
# uninterrupted journal's size. A child that exits before its threshold
# is caught is still recovered and compared, but does not count as a
# kill; the drill fails unless at least one child was really killed.
# Exit status: 0 on success, 1 on any mismatch or unexpected exit.

set -u
bin=${1:?usage: crash_drill.sh <grading_service> [seed]}
seed=${2:-1}
args="--students 300000 --ticks 400 --fault-storm"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

report() {
  grep -v '^journal:' | grep -v '^#'
}

"$bin" $args --journal-dir "$dir/ref" | report > "$dir/want.txt" || exit 1
full=$(wc -c < "$dir/ref/shard-0.l2lj")
thresholds=$(awk -v seed="$seed" -v full="$full" 'BEGIN {
  srand(seed)
  for (i = 0; i < 3; ++i) printf "%d\n", full * (0.15 + 0.7 * rand())
}')

kills=0
for t in $thresholds; do
  rm -rf "$dir/run"
  "$bin" $args --journal-dir "$dir/run" > /dev/null &
  pid=$!
  while kill -0 "$pid" 2> /dev/null; do
    size=$(stat -c %s "$dir/run/shard-0.l2lj" 2> /dev/null || echo 0)
    if [ "$size" -ge "$t" ]; then
      kill -9 "$pid" 2> /dev/null
      break
    fi
  done
  wait "$pid"
  status=$?
  # 137 = 128 + SIGKILL. 0 means the child finished before the kill
  # reached it (kill on an exited, unreaped child still succeeds).
  case $status in
    137) kills=$((kills + 1)); what="killed" ;;
    0) what="exited before the kill" ;;
    *) echo "threshold $t: child exited with status $status"; exit 1 ;;
  esac
  echo "threshold $t of $full bytes: $what at $(wc -c < "$dir/run/shard-0.l2lj") bytes"
  "$bin" $args --journal-dir "$dir/run" --recover | report > "$dir/got.txt" ||
    { echo "threshold $t: --recover failed"; exit 1; }
  diff "$dir/got.txt" "$dir/want.txt" ||
    { echo "threshold $t: recovered report differs"; exit 1; }
  cmp "$dir/run/shard-0.l2lj" "$dir/ref/shard-0.l2lj" ||
    { echo "threshold $t: recovered journal differs"; exit 1; }
done

if [ "$kills" -eq 0 ]; then
  echo "no child was killed before it finished; the drill proved nothing"
  exit 1
fi
echo "crash drill: $kills kill(s), every recovery byte-identical"

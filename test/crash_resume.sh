#!/usr/bin/env bash
# End-to-end crash recovery: a journaled learn-twig session killed mid-run
# by --crash-after must (a) die with the kill exit code, (b) resume from its
# journal without re-asking any answered question, and (c) converge to the
# same query as an uninterrupted run under the same seed, and (d) leave a
# journal byte-identical to an uninterrupted journaled run's.
set -u

EXE="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() { echo "crash_resume: $*" >&2; exit 1; }

questions_of() { sed -n 's/^questions: \([0-9]*\),.*/\1/p' "$1"; }
replayed_of() { sed -n 's/.*replayed: \([0-9]*\),.*/\1/p' "$1"; }
learned_of() { grep '^learned' "$1"; }

"$EXE" xmark --scale 2 --seed 3 > "$tmp/doc.xml" || fail "doc generation failed"
goal='//person[profile/education]/name'

# 1. The uninterrupted reference run.
"$EXE" learn-twig "$tmp/doc.xml" --goal "$goal" --interactive --seed 7 \
  > "$tmp/full.out" || fail "reference run failed"
full_q=$(questions_of "$tmp/full.out")
[ -n "$full_q" ] || fail "reference run printed no question count"
[ "$full_q" -ge 2 ] || fail "reference run too short ($full_q questions) to crash mid-way"
learned_of "$tmp/full.out" > /dev/null || fail "reference run learned nothing"

# 2. The same session, journaled, killed after half the answers.
k=$(( full_q / 2 ))
"$EXE" learn-twig "$tmp/doc.xml" --goal "$goal" --seed 7 \
  --journal "$tmp/session.wal" --crash-after "$k" > "$tmp/crash.out" 2> /dev/null
status=$?
[ "$status" -eq 137 ] || fail "crash run exited $status, expected 137"
[ -s "$tmp/session.wal" ] || fail "crash run left no journal"

# 3. Resume from the journal against the healthy oracle.
"$EXE" learn-twig "$tmp/doc.xml" --goal "$goal" \
  --journal "$tmp/session.wal" --resume > "$tmp/resume.out" \
  || fail "resume run failed"

replayed=$(replayed_of "$tmp/resume.out")
resumed_q=$(questions_of "$tmp/resume.out")
[ "$replayed" -eq "$k" ] \
  || fail "resume replayed $replayed answers, expected the $k paid for before the crash"
[ $(( resumed_q + replayed )) -eq "$full_q" ] \
  || fail "resume asked $resumed_q live questions after $replayed replays; uninterrupted run took $full_q — some question was re-asked or lost"

diff <(learned_of "$tmp/full.out") <(learned_of "$tmp/resume.out") > /dev/null \
  || fail "resumed session learned a different query:
  full:    $(learned_of "$tmp/full.out")
  resumed: $(learned_of "$tmp/resume.out")"

# 4. The crashed-and-resumed journal is byte-identical to the journal of an
#    uninterrupted run: the question in flight at the crash is re-posed
#    without a second Asked record.
"$EXE" learn-twig "$tmp/doc.xml" --goal "$goal" --seed 7 \
  --journal "$tmp/full.wal" > /dev/null || fail "journaled reference run failed"
cmp -s "$tmp/full.wal" "$tmp/session.wal" \
  || fail "resumed journal differs from the uninterrupted one ($(wc -c < "$tmp/session.wal") vs $(wc -c < "$tmp/full.wal") bytes)"

echo "crash_resume: ok (crashed after $k/$full_q answers, resumed to the same query and journal bytes)"

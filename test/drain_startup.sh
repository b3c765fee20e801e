#!/usr/bin/env bash
# SIGTERM at start-up: 30 sequential `learnq serve` spawns, each sent
# SIGTERM right after its first healthy /healthz, must all exit 0 within
# the drain grace.  Spawns run one after another, never in parallel.
set -u

EXE="$1"
runs=30
grace=3
tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2> /dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() { echo "drain_startup: $*" >&2; exit 1; }

# One GET /healthz over bash's /dev/tcp, in a subshell (a failed [exec]
# redirection ends the shell that runs it); true on a 200.
healthy() {
  local status
  status=$(
    {
      exec 3<> "/dev/tcp/127.0.0.1/$1" &&
        printf 'GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' >&3 &&
        IFS= read -r -t 2 line <&3 &&
        printf '%s' "$line"
    } 2> /dev/null
  )
  case "$status" in "HTTP/1.1 200"*) return 0 ;; *) return 1 ;; esac
}

for i in $(seq 1 "$runs"); do
  dir="$tmp/$i"
  mkdir -p "$dir"
  "$EXE" serve --state-dir "$dir/state" --port 0 --drain-grace "$grace" \
    > "$dir/out" 2> "$dir/err" &
  pid=$!
  port=""
  for _ in $(seq 1 1000); do
    port=$(sed -n 's/^listening on [^:]*:\([0-9]*\)$/\1/p' "$dir/out")
    [ -n "$port" ] && break
    kill -0 "$pid" 2> /dev/null || fail "run $i: server died before listening"
    sleep 0.01
  done
  [ -n "$port" ] || fail "run $i: no listening line"
  up=""
  for _ in $(seq 1 1000); do
    if healthy "$port"; then up=1; break; fi
    sleep 0.005
  done
  [ -n "$up" ] || fail "run $i: /healthz never answered 200"
  kill -TERM "$pid"
  # Exit within the grace, polled every 50 ms.
  for _ in $(seq 1 $((grace * 20))); do
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.05
  done
  if kill -0 "$pid" 2> /dev/null; then
    fail "run $i: still running ${grace}s after SIGTERM (drain hung)"
  fi
  wait "$pid"
  status=$?
  pid=""
  [ "$status" -eq 0 ] || { cat "$dir/err" >&2; fail "run $i: exited $status"; }
done
echo "drain_startup: $runs start-up drains exited 0"

#!/usr/bin/env bash
# tecore-server smoke: start the server on an ephemeral port, create a
# KB and drive the paper's demo workflow (load graph -> add rules ->
# detect -> solve -> edit -> browse) over HTTP with curl at the
# tenant-scoped /v1/kb/{name} paths, then exercise multi-KB isolation,
# constraint mining, SSE subscriptions, bearer-token auth (second server
# instance), kill -9 recovery (third instance) and clean shutdown on
# SIGTERM. JSON shapes asserted with python3.
#
# Usage: scripts/server_smoke.sh [path/to/tecore-server]
set -u

SERVER="${1:-build/tecore-server}"
if [[ ! -x "$SERVER" ]]; then
  echo "error: '$SERVER' not found or not executable (build first)" >&2
  exit 2
fi

WORKDIR="$(mktemp -d)"
LOG="$WORKDIR/server.log"
AUTH_LOG="$WORKDIR/server-auth.log"
trap 'kill "$SERVER_PID" "$AUTH_PID" "$DUR_PID" 2>/dev/null; rm -rf "$WORKDIR"' EXIT
AUTH_PID=""
DUR_PID=""

# --access-log (no path) writes one line per request to stderr -> $LOG,
# asserted in the observability phase below.
"$SERVER" --port 0 --access-log >"$LOG" 2>&1 &
SERVER_PID=$!

# Parse the ephemeral port off a server's startup line (stable contract).
wait_port() {
  local log="$1" port=""
  for _ in $(seq 1 50); do
    port="$(grep -oE 'listening on http://127\.0\.0\.1:[0-9]+' "$log" \
            | grep -oE '[0-9]+$' || true)"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  echo "$port"
}

PORT="$(wait_port "$LOG")"
if [[ -z "$PORT" ]]; then
  echo "server did not start; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
BASE="http://127.0.0.1:$PORT/v1"
echo "server up on port $PORT"

fail=0

# request <name> <expected-status> <python-shape-assertion> <curl args...>
request() {
  local name="$1" expected="$2" assertion="$3"
  shift 3
  local body status
  body="$(curl -sS -w '\n%{http_code}' "$@" 2>>"$LOG")"
  status="${body##*$'\n'}"
  body="${body%$'\n'*}"
  if [[ "$status" != "$expected" ]]; then
    echo "FAIL $name: expected HTTP $expected, got $status: $body" >&2
    fail=1
    return
  fi
  if ! python3 -c "
import json, sys
r = json.loads(sys.argv[1])
assert $assertion, r
" "$body"; then
    echo "FAIL $name: shape assertion '$assertion' on: $body" >&2
    fail=1
    return
  fi
  echo "ok   $name"
}

# 0. a server started without --kb, --graph or --rules holds no KB, and
# the single-KB aliases of 0.x (/v1/<endpoint>) route nowhere.
request "GET /v1/kb (fresh server)" 200 "r['num_kbs'] == 0 and r['kbs'] == []" \
  "$BASE/kb"
request "GET /v1/graph (former alias)" 404 "r['error']['code'] == 'NotFound'" \
  "$BASE/graph"
request "POST /v1/kb demo" 201 "r['kb'] == 'demo' and r['version'] == 0" \
  -X POST "$BASE/kb" -d '{"name":"demo"}'
KB="$BASE/kb/demo"

# 1. select a UTKG.
request "POST /v1/kb/demo/graph" 200 \
  "r['version'] == 1 and r['num_facts'] == 5 and r['has_graph']" \
  -X POST "$KB/graph" -d '{"text":"CR coach Chelsea [2000,2004] 0.9 .\nCR coach Leicester [2015,2017] 0.7 .\nCR playsFor Palermo [1984,1986] 0.5 .\nCR birthDate 1951 [1951,2017] 1.0 .\nCR coach Napoli [2001,2003] 0.6 .\n"}'
request "GET /v1/kb/demo/graph" 200 "r['num_live_facts'] == 5" "$KB/graph"
request "GET /v1/kb/demo/stats" 200 "r['stats']['num_facts'] == 5" \
  "$KB/stats"

# 2. rules, with predicate auto-completion.
request "GET /v1/kb/demo/complete" 200 "r['completions'] == ['coach']" \
  "$KB/complete?prefix=coa"
request "POST /v1/kb/demo/rules" 200 \
  "r['added'] == 1 and r['num_rules'] == 1" \
  -X POST "$KB/rules" -d '{"text":"c2: quad(x, coach, y, t) & quad(x, coach, z, t2) & y != z -> disjoint(t, t2) ."}'
request "GET /v1/kb/demo/rules" 200 "r['rules'][0]['kind'] == 'constraint'" \
  "$KB/rules"
request "GET /v1/kb/demo/suggest" 200 "'suggestions' in r" "$KB/suggest"

# 3. compute.
request "GET /v1/kb/demo/conflicts" 200 \
  "r['num_conflicts'] == 1 and r['conflicts'][0]['rule'] == 'c2'" \
  "$KB/conflicts"
request "POST /v1/kb/demo/solve" 200 \
  "r['feasible'] and r['removed'] == 1 and 'Napoli' in r['removed_facts'][0]" \
  -X POST "$KB/solve" -d '{"solver":"mln"}'
request "POST /v1/kb/demo/edits" 200 \
  "r['inserted'] == 1 and r['feasible'] and r['version'] > 3" \
  -X POST "$KB/edits" -d '{"script":"+ CR coach Bari [2006,2008] 0.5 .\n"}'

# 4. browse after the edit.
request "GET /v1/kb/demo/stats (post-edit)" 200 \
  "r['stats']['num_facts'] == 6" "$KB/stats"

# 4b. observability: /metrics exposes asserted values (not just a 200).
METRICS="$(curl -sS "http://127.0.0.1:$PORT/metrics" 2>>"$LOG")"
# metric <series-with-labels> -> value (empty if absent)
metric() { grep -F "$1 " <<<"$METRICS" | awk '{print $2}'; }
if [[ "$(metric 'tecore_kb_facts{kb="demo"}')" == "6" ]]; then
  echo "ok   /metrics tecore_kb_facts{kb=demo} == 6"
else
  echo "FAIL /metrics kb facts gauge: got '$(metric 'tecore_kb_facts{kb="demo"}')'" >&2
  fail=1
fi
GRAPH_2XX="$(metric 'tecore_http_requests_total{endpoint="graph",status="2xx"}')"
if [[ -n "$GRAPH_2XX" && "$GRAPH_2XX" -ge 2 ]]; then
  echo "ok   /metrics graph request counter ($GRAPH_2XX)"
else
  echo "FAIL /metrics graph request counter: got '$GRAPH_2XX'" >&2
  fail=1
fi
SOLVES="$(metric 'tecore_stage_duration_micros_count{stage="solve"}')"
if [[ -n "$SOLVES" && "$SOLVES" -ge 1 ]]; then
  echo "ok   /metrics solve stage timer ($SOLVES observations)"
else
  echo "FAIL /metrics solve stage timer: got '$SOLVES'" >&2
  fail=1
fi
# The access log (stderr) carries one structured line per request.
if grep -qE 'method=POST path=/v1/kb/demo/solve status=200 bytes=[0-9]+ micros=[0-9]+ request_id=r-' "$LOG"; then
  echo "ok   access log line for POST /v1/kb/demo/solve"
else
  echo "FAIL access log missing structured line for POST /v1/kb/demo/solve" >&2
  fail=1
fi

# 5. multi-tenant lifecycle + isolation: two KBs with different contents.
request "POST /v1/kb alpha" 201 "r['kb'] == 'alpha' and r['version'] == 0" \
  -X POST "$BASE/kb" -d '{"name":"alpha"}'
request "POST /v1/kb beta" 201 "r['kb'] == 'beta'" \
  -X POST "$BASE/kb" -d '{"name":"beta"}'
request "POST /v1/kb duplicate" 409 "r['error']['code'] == 'AlreadyExists'" \
  -X POST "$BASE/kb" -d '{"name":"alpha"}'
request "GET /v1/kb" 200 \
  "r['num_kbs'] == 3 and [k['kb'] for k in r['kbs']] == ['alpha','beta','demo']" \
  "$BASE/kb"
request "POST /v1/kb/alpha/graph" 200 "r['num_facts'] == 2" \
  -X POST "$BASE/kb/alpha/graph" -d '{"text":"a p b [1,2] 0.9 .\na p c [3,4] 0.8 .\n"}'
request "POST /v1/kb/beta/graph" 200 "r['num_facts'] == 1" \
  -X POST "$BASE/kb/beta/graph" -d '{"text":"x q y [1,9] 0.5 .\n"}'
# Isolation: fact counts differ per KB; the demo KB is untouched.
request "GET /v1/kb/alpha/graph (isolated)" 200 \
  "r['num_facts'] == 2 and r['version'] == 1" "$BASE/kb/alpha/graph"
request "GET /v1/kb/beta/graph (isolated)" 200 \
  "r['num_facts'] == 1 and r['version'] == 1" "$BASE/kb/beta/graph"
request "GET /v1/kb/demo/graph (isolated)" 200 "r['num_facts'] == 6" \
  "$KB/graph"

# 5b. constraint mining: mine rules from a KB's own facts (read-only),
# adopt them through the rule write path, then detect with them.
request "POST /v1/kb gamma" 201 "r['kb'] == 'gamma'" \
  -X POST "$BASE/kb" -d '{"name":"gamma"}'
request "POST /v1/kb/gamma/graph" 200 "r['num_facts'] == 4" \
  -X POST "$BASE/kb/gamma/graph" -d '{"text":"CR coach Chelsea [2000,2004] 0.9 .\nCR coach Napoli [2001,2003] 0.6 .\nCR coach Leicester [2015,2017] 0.7 .\nAF coach Milan [1990,1995] 0.8 .\n"}'
request "POST /v1/kb/gamma/mine" 200 \
  "r['num_rules'] >= 1 and r['rules'][0]['name'] == 'disjoint_coach' and not r['adopted'] and 'disjoint_coach' in r['tcr']" \
  -X POST "$BASE/kb/gamma/mine" -d '{"min_support":2}'
request "POST /v1/kb/gamma/mine (adopt)" 200 \
  "r['adopted'] and r['added'] >= 1 and r['adopted_version'] > r['version']" \
  -X POST "$BASE/kb/gamma/mine" -d '{"min_support":2,"adopt":true}'
request "GET /v1/kb/gamma/conflicts (mined rules detect)" 200 \
  "r['num_conflicts'] == 1" "$BASE/kb/gamma/conflicts"

# Chunked request body: curl sends chunked when told to; the server must
# decode it (bulk streaming loads).
request "POST /v1/kb/beta/graph (chunked)" 200 "r['num_facts'] == 2" \
  -X POST "$BASE/kb/beta/graph" -H 'Transfer-Encoding: chunked' \
  -d '{"text":"x q y [1,9] 0.5 .\nx q z [2,3] 0.4 .\n"}'

# SSE: the first subscription event is the current snapshot.
SSE="$(curl -sSN --max-time 5 "$BASE/kb/alpha/subscribe?max_events=1" \
       2>>"$LOG" || true)"
if grep -q 'event: snapshot' <<<"$SSE" \
   && grep -q '"kb":"alpha"' <<<"$SSE" \
   && grep -q '"num_facts":2' <<<"$SSE"; then
  echo "ok   GET /v1/kb/alpha/subscribe (first SSE event)"
else
  echo "FAIL SSE subscribe: $SSE" >&2
  fail=1
fi

request "DELETE /v1/kb/beta" 200 "r['deleted'] == True" \
  -X DELETE "$BASE/kb/beta"
request "GET /v1/kb/beta/graph (deleted)" 404 \
  "r['error']['code'] == 'NotFound'" "$BASE/kb/beta/graph"

# Error paths: the uniform envelope everywhere.
request "404" 404 "r['error']['code'] == 'NotFound'" "$BASE/nope"
request "405" 405 "r['error']['code'] == 'MethodNotAllowed'" \
  -X DELETE "$KB/solve"
ALLOW="$(curl -sS -D - -o /dev/null -X DELETE "$KB/solve" 2>>"$LOG" \
         | tr -d '\r' | grep -i '^Allow:' || true)"
if [[ "$ALLOW" == "Allow: POST" ]]; then
  echo "ok   405 Allow header from the route table"
else
  echo "FAIL 405 Allow header: got '$ALLOW'" >&2
  fail=1
fi
request "400 bad json" 400 \
  "r['error']['code'] in ('ParseError','InvalidArgument')" \
  -X POST "$KB/graph" -d '{oops'

# 6. bearer-token auth on a second server instance: a service token plus
# one per-KB token scoped to KB 'alpha'.
printf 'smoke-secret\n' > "$WORKDIR/token"
printf '# kb tokens\nalpha alpha-tok\n' > "$WORKDIR/kb-tokens"
"$SERVER" --port 0 --auth-token-file "$WORKDIR/token" \
  --kb-tokens-file "$WORKDIR/kb-tokens" >"$AUTH_LOG" 2>&1 &
AUTH_PID=$!
AUTH_PORT="$(wait_port "$AUTH_LOG")"
if [[ -z "$AUTH_PORT" ]]; then
  echo "FAIL: auth server did not start" >&2
  cat "$AUTH_LOG" >&2
  fail=1
else
  ABASE="http://127.0.0.1:$AUTH_PORT/v1"
  request "auth: 401 anonymous" 401 \
    "r['error']['code'] == 'Unauthenticated'" "$ABASE/kb"
  request "auth: 403 wrong token" 403 \
    "r['error']['code'] == 'PermissionDenied'" \
    -H 'Authorization: Bearer wrong' "$ABASE/kb"
  request "auth: 200 right token" 200 "r['num_kbs'] == 0" \
    -H 'Authorization: Bearer smoke-secret' "$ABASE/kb"
  # The per-KB token reaches its own KB and nothing else.
  request "auth: create alpha (service token)" 201 "r['kb'] == 'alpha'" \
    -X POST -H 'Authorization: Bearer smoke-secret' "$ABASE/kb" \
    -d '{"name":"alpha"}'
  request "auth: kb token writes own kb" 200 "r['num_facts'] == 1" \
    -X POST -H 'Authorization: Bearer alpha-tok' "$ABASE/kb/alpha/graph" \
    -d '{"text":"a p b [1,2] 0.9 .\n"}'
  request "auth: kb token denied cross-kb" 403 \
    "r['error']['code'] == 'PermissionDenied'" \
    -H 'Authorization: Bearer alpha-tok' "$ABASE/kb/default/graph"
  request "auth: kb token denied admin" 403 \
    "r['error']['code'] == 'PermissionDenied'" \
    -H 'Authorization: Bearer alpha-tok' "$ABASE/kb"
  # A former alias is unrouted, so admin scope: 403, never a revealing 404.
  request "auth: kb token denied former alias" 403 \
    "r['error']['code'] == 'PermissionDenied'" \
    -H 'Authorization: Bearer alpha-tok' "$ABASE/graph"
  # /metrics is auth-exempt: scrapers hold no tokens.
  AUTH_METRICS_STATUS="$(curl -sS -o /dev/null -w '%{http_code}' \
    "http://127.0.0.1:$AUTH_PORT/metrics" 2>>"$LOG")"
  if [[ "$AUTH_METRICS_STATUS" == "200" ]]; then
    echo "ok   /metrics auth-exempt on secured server"
  else
    echo "FAIL /metrics on secured server: HTTP $AUTH_METRICS_STATUS" >&2
    fail=1
  fi
  kill -TERM "$AUTH_PID" 2>/dev/null
fi

# 7. durability: a --data-dir server killed with -9 must come back with
# every acknowledged write (WAL + checkpoint recovery). --kb creates the
# KB at the first start; the restart holds exactly what it recovered.
DUR_LOG="$WORKDIR/server-durable.log"
"$SERVER" --port 0 --data-dir "$WORKDIR/data" --kb default >"$DUR_LOG" 2>&1 &
DUR_PID=$!
DUR_PORT="$(wait_port "$DUR_LOG")"
if [[ -z "$DUR_PORT" ]]; then
  echo "FAIL: durable server did not start" >&2
  cat "$DUR_LOG" >&2
  fail=1
else
  DBASE="http://127.0.0.1:$DUR_PORT/v1"
  request "durable: load graph" 200 "r['num_facts'] == 1" \
    -X POST "$DBASE/kb/default/graph" -d '{"text":"a p b [1,2] 0.9 .\n"}'
  request "durable: edit" 200 "r['inserted'] == 1" \
    -X POST "$DBASE/kb/default/edits" -d '{"script":"+ a p c [3,4] 0.8 .\n"}'
  kill -9 "$DUR_PID" 2>/dev/null
  wait "$DUR_PID" 2>/dev/null
  "$SERVER" --port 0 --data-dir "$WORKDIR/data" >"$DUR_LOG" 2>&1 &
  DUR_PID=$!
  DUR_PORT="$(wait_port "$DUR_LOG")"
  if [[ -z "$DUR_PORT" ]]; then
    echo "FAIL: durable server did not restart" >&2
    cat "$DUR_LOG" >&2
    fail=1
  else
    DBASE="http://127.0.0.1:$DUR_PORT/v1"
    if grep -q '1 recovered' "$DUR_LOG"; then
      echo "ok   durable: restart recovered the KB"
    else
      echo "FAIL durable: startup line does not report recovery" >&2
      cat "$DUR_LOG" >&2
      fail=1
    fi
    request "durable: state survived kill -9" 200 \
      "r['num_facts'] == 2 and r['version'] == 2" "$DBASE/kb/default/graph"
    request "durable: restart holds only recovered KBs" 200 \
      "[k['kb'] for k in r['kbs']] == ['default']" "$DBASE/kb"
    # The restarted process counted exactly one storage recovery.
    DUR_METRICS="$(curl -sS "http://127.0.0.1:$DUR_PORT/metrics" 2>>"$LOG")"
    if grep -qF 'tecore_storage_recoveries_total 1' <<<"$DUR_METRICS"; then
      echo "ok   /metrics storage recovery counter == 1"
    else
      echo "FAIL /metrics storage recovery counter: $(grep -F 'tecore_storage_recoveries_total' <<<"$DUR_METRICS")" >&2
      fail=1
    fi
    kill -TERM "$DUR_PID" 2>/dev/null
  fi
fi

# Clean shutdown: SIGTERM must terminate the process promptly.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: server did not shut down on SIGTERM" >&2
  kill -9 "$SERVER_PID"
  fail=1
elif ! grep -q "shutting down" "$LOG"; then
  echo "FAIL: no clean shutdown message" >&2
  fail=1
else
  echo "ok   clean shutdown"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "--- server log ---" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "server smoke passed (tenant endpoints, isolation, mining, SSE, auth, metrics, durability, shutdown)"

#!/usr/bin/env bash
# Multi-process convergence smoke test: for each replica-control method,
# launch a 3-process esrnode cluster over loopback TCP (file rendezvous
# for addresses), let every node originate updates, wait for the
# distributed drain barrier, and require the three store dumps to be
# byte-identical — the paper's convergence property (§2.2), held across
# real OS process boundaries.
#
# The first (ordup) round additionally exercises the causal tracing
# pipeline end to end: each node serves /trace, the esrtrace collector
# tails all three rings concurrently, and the script gates on the
# collector's verdict — gap-free streams, zero unattributed events, and
# a complete commit→receive→apply timeline at every site for at least
# SITES*UPDATES MSets, exported as Chrome trace-event JSON.
#
# Every method round also drives the consistency-level read menu: each
# node interleaves READS mixed-level reads (strong, bounded-staleness,
# session, eventual in rotation) with its update workload, then runs a
# post-drain equivalence round requiring all four levels to answer with
# the converged store's value.  A node exits non-zero if any gate
# misbehaves or the levels diverge after quiescence.
#
# Usage: scripts/smoke_node.sh [method...]
#   RACE=1      build esrnode with the race detector
#   UPDATES=n   updates per node (default 30; 200 in chaos mode)
#   READS=n     mixed-level reads per node per round (default 8)
#   SITES=n     cluster size (default 3)
#   SHARDS=n    ordering domains for the extra sharded ordup round
#               (default 4; 0 skips the round)
#   NOTRACE=1   skip the trace-collector gate
#   CHAOS=1     replicated-sequencer failover drill instead of the
#               method sweep: run ordup with -seqrep on static ports,
#               kill -9 the site-1 process (the ensemble member that
#               leads first) mid-load, restart it over the surviving
#               journals, and still require byte-identical dumps
set -euo pipefail

cd "$(dirname "$0")/.."

METHODS=("$@")
if [ ${#METHODS[@]} -eq 0 ]; then
    METHODS=(ordup commu ritu compe)
fi
SITES="${SITES:-3}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

BUILDFLAGS=()
if [ "${RACE:-0}" = "1" ]; then
    BUILDFLAGS+=(-race)
fi
go build "${BUILDFLAGS[@]}" -o "$WORK/esrnode" ./cmd/esrnode
go build -o "$WORK/esrtrace" ./cmd/esrtrace

if [ "${CHAOS:-0}" = "1" ]; then
    # Failover drill: static ports so the restarted process comes back
    # at the address its peers already hold.
    UPDATES="${UPDATES:-200}"
    dir="$WORK/chaos"
    mkdir -p "$dir"
    BASE=$((20000 + RANDOM % 20000))
    PEERS=""
    for i in $(seq 1 "$SITES"); do
        PEERS+="$i=127.0.0.1:$((BASE + i)),"
    done
    PEERS="${PEERS%,}"
    launch() { # launch SITE UPDATES -> pid in $!
        local i="$1" n="$2"
        "$WORK/esrnode" \
            -site "$i" -sites "$SITES" -method ordup -seqrep \
            -listen "127.0.0.1:$((BASE + i))" -peers "$PEERS" \
            -dir "$dir/wal$i" -updates "$n" -seed 42 \
            -out "$dir/store$i.json" -linger 3s \
            >>"$dir/node$i.log" 2>&1 &
    }
    pids=()
    for i in $(seq 2 "$SITES"); do
        launch "$i" "$UPDATES"
        pids+=($!)
    done
    launch 1 "$UPDATES"
    victim=$!
    sleep 0.5 # cluster is mid-load by now
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
    sleep 0.3 # survivors elect a new sequencer leader
    # Same ports, same journals: cold recovery replays the WAL, settles
    # the torn reservation run, and rejoins without fresh updates.
    launch 1 0
    pids+=($!)
    status=0
    for pid in "${pids[@]}"; do
        wait "$pid" || status=$?
    done
    if [ "$status" -ne 0 ]; then
        echo "FAIL chaos: a node exited non-zero"
        tail -n 5 "$dir"/node*.log
        exit 1
    fi
    for i in $(seq 2 "$SITES"); do
        if ! cmp -s "$dir/store1.json" "$dir/store$i.json"; then
            echo "FAIL chaos: store dump of site $i differs from restarted site 1"
            diff "$dir/store1.json" "$dir/store$i.json" | head -n 10 || true
            exit 1
        fi
    done
    echo "PASS chaos: leader killed and restarted mid-load, $SITES processes converged to identical stores"
    exit 0
fi
UPDATES="${UPDATES:-30}"
READS="${READS:-8}"

fail=0
first=1
for method in "${METHODS[@]}"; do
    dir="$WORK/$method"
    mkdir -p "$dir"
    # The first round doubles as the tracing smoke: nodes serve /trace,
    # the collector tails all rings while the cluster runs, and its
    # exit code gates the script (gap-free, zero unattributed events,
    # complete timelines at every site).
    tracing=0
    if [ "$first" = "1" ] && [ "${NOTRACE:-0}" != "1" ]; then
        tracing=1
    fi
    first=0
    pids=()
    endpoints=""
    # Metrics ports stay below the kernel's ephemeral range (32768 and
    # up), which the nodes' own outgoing connections draw from.
    mbase=$((21000 + RANDOM % (32768 - 21000 - SITES)))
    for i in $(seq 1 "$SITES"); do
        extra=()
        if [ "$tracing" = "1" ]; then
            extra+=(-metrics "127.0.0.1:$((mbase + i))" -linger 5s)
            endpoints+="127.0.0.1:$((mbase + i)),"
        fi
        "$WORK/esrnode" \
            -site "$i" -sites "$SITES" -method "$method" \
            -peers-file "$dir/rdv" -dir "$dir/wal$i" \
            -updates "$UPDATES" -seed 42 \
            -reads "$READS" -consistency mixed \
            -out "$dir/store$i.json" "${extra[@]}" \
            >"$dir/node$i.log" 2>&1 &
        pids+=($!)
    done
    collector=0
    if [ "$tracing" = "1" ]; then
        "$WORK/esrtrace" \
            -nodes "${endpoints%,}" -sites "$SITES" \
            -expect $((SITES * UPDATES)) -timeout 90s \
            -out "$dir/trace.json" \
            >"$dir/esrtrace.log" 2>&1 &
        collector=$!
    fi
    status=0
    for pid in "${pids[@]}"; do
        wait "$pid" || status=$?
    done
    if [ "$tracing" = "1" ]; then
        if wait "$collector"; then
            echo "PASS trace: $(tail -n 1 "$dir/esrtrace.log")"
        else
            echo "FAIL trace: collector rejected the merged timelines"
            tail -n 10 "$dir/esrtrace.log"
            fail=1
        fi
    fi
    if [ "$status" -ne 0 ]; then
        echo "FAIL $method: a node exited non-zero"
        tail -n 5 "$dir"/node*.log
        fail=1
        continue
    fi
    ok=1
    for i in $(seq 2 "$SITES"); do
        if ! cmp -s "$dir/store1.json" "$dir/store$i.json"; then
            ok=0
            echo "FAIL $method: store dump of site $i differs from site 1"
            diff "$dir/store1.json" "$dir/store$i.json" | head -n 10 || true
        fi
    done
    for i in $(seq 1 "$SITES"); do
        if ! grep -q "post-drain equivalence round passed" "$dir/node$i.log"; then
            ok=0
            echo "FAIL $method: site $i never ran the mixed-level equivalence round"
        fi
    done
    if [ "$ok" = "1" ]; then
        echo "PASS $method: $SITES processes converged to identical stores (+$READS mixed-level reads per node)"
    else
        fail=1
    fi
done

# Sharded round: the same ordup cluster with the keyspace split into
# SHARDS independent ordering domains.  The dumps merge all shards
# deterministically (sorted by shard, then object), so byte-identical
# dumps witness per-shard convergence across process boundaries.
SHARDS="${SHARDS:-4}"
if [ "$SHARDS" -gt 1 ]; then
    dir="$WORK/ordup-sharded"
    mkdir -p "$dir"
    pids=()
    for i in $(seq 1 "$SITES"); do
        "$WORK/esrnode" \
            -site "$i" -sites "$SITES" -method ordup -shards "$SHARDS" \
            -peers-file "$dir/rdv" -dir "$dir/wal$i" \
            -updates "$UPDATES" -seed 42 \
            -reads "$READS" -consistency mixed \
            -out "$dir/store$i.json" \
            >"$dir/node$i.log" 2>&1 &
        pids+=($!)
    done
    status=0
    for pid in "${pids[@]}"; do
        wait "$pid" || status=$?
    done
    if [ "$status" -ne 0 ]; then
        echo "FAIL ordup shards=$SHARDS: a node exited non-zero"
        tail -n 5 "$dir"/node*.log
        fail=1
    else
        ok=1
        for i in $(seq 2 "$SITES"); do
            if ! cmp -s "$dir/store1.json" "$dir/store$i.json"; then
                ok=0
                echo "FAIL ordup shards=$SHARDS: store dump of site $i differs from site 1"
                diff "$dir/store1.json" "$dir/store$i.json" | head -n 10 || true
            fi
        done
        if [ "$ok" = "1" ]; then
            echo "PASS ordup shards=$SHARDS: $SITES processes converged to identical sharded stores"
        else
            fail=1
        fi
    fi
fi
exit "$fail"

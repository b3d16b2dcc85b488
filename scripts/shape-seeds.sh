#!/usr/bin/env bash
# The paper-shape tests of internal/exp at several seeds: each seed's
# run prints its failing claims, or "ok". The goldens are pinned at
# seed 1 and compared only there.
#
#   make shape-seeds                # seeds 1-8
#   SEEDS="3 5" bash scripts/shape-seeds.sh
set -u

GO=${GO:-go}
SEEDS=${SEEDS:-1 2 3 4 5 6 7 8}
TESTS='^(TestTable2|TestFig|TestEndToEndFigures|TestTab4Swapping|TestOptimality|TestAblationTuner|TestQueuePolicies|TestFidelity|TestBackground)'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$GO" test -c -o "$tmp/exp.test" ./internal/exp || exit 1

failed=0
for s in $SEEDS; do
	if (cd internal/exp && "$tmp/exp.test" -test.run "$TESTS" -test.count=1 -seed "$s") >"$tmp/out" 2>&1; then
		echo "seed $s: ok"
	else
		failed=1
		echo "seed $s: FAIL"
		grep -E '^\s*(--- FAIL|[A-Za-z0-9_]+\.go:[0-9]+: )' "$tmp/out" | grep -v 'not compared at seed' | sed -e 's/ ([0-9.]*s)$//' -e 's/^/  /'
	fi
done
exit $failed

#!/bin/sh
# Runs the installed `moqo` console script end to end: once through the
# oracles, once through the five search runners, once at 100 tables,
# where the cost model's selectivity memo fills and flushes, once under
# a time budget, where no sample may read inf, through the climb
# statistics, once through a config file, and through a bad flag value
# (--tables many) and three bad config files (a misspelled section, a
# bare % in a value, tables = many), which must each exit with code 1.
# Writes its files to $RUNNER_TEMP, or to a fresh temporary directory
# when that is unset.
#
# Usage: sh .github/smoke.sh   (after `pip install -e .`)
set -eu

tmp="${RUNNER_TEMP:-$(mktemp -d)}"

# a config error exits with code 1 exactly
expect_exit_1() {
    what="$1"
    shift
    code=0
    "$@" || code=$?
    if [ "$code" -ne 1 ]; then
        echo "$what exited $code, not 1"
        exit 1
    fi
}

# the flags make a run finish at once should the file be accepted
expect_config_error() {
    expect_exit_1 "$1" moqo run --config "$2" --budget-iters 1 --sample-ms 1 --seeds 0 --algos ii
}

moqo oracle --tables 4 --seed 0
moqo run --tables 4 --budget-iters 3 --sample-ms 1 --seeds 0
moqo run --tables 100 --topology chain --budget-iters 10 --sample-ms 5 --seeds 0 --algos rmq,ii
# under a time budget every mark must read a finished iteration
moqo run --tables 4 --budget-ms 200 --sample-ms 100 --seeds 0 --algos rmq,ii > "$tmp/timed.csv"
cat "$tmp/timed.csv"
if grep -q ',inf$' "$tmp/timed.csv"; then
    echo "a sample reads inf"
    exit 1
fi
moqo stats --tables 4,6 --seeds 0-1 --rmq-iters 3
# a config file: an [experiment] section and the README's [catalog]
printf '[experiment]\ntables = 4\nalgos = rmq,ii\nbudget_iters = 3\nsample_ms = 1\nseeds = 0\n\n[catalog]\nscan_ops = seq:1.0, sample:0.1\njoin_ops = nested_loop:0.001, hash, sort_merge:64\n' > "$tmp/exp.ini"
moqo run --config "$tmp/exp.ini"
printf '[experimnet]\ntables = 4\n' > "$tmp/typo.ini"
expect_config_error "a misspelled section" "$tmp/typo.ini"
printf '[experiment]\nout = runs%%.csv\n' > "$tmp/percent.ini"
expect_config_error "a bare percent sign in a value" "$tmp/percent.ini"
# a bad value is the same config error from a flag and from a file
expect_exit_1 "a bad flag value" moqo run --tables many
printf '[experiment]\ntables = many\n' > "$tmp/value.ini"
expect_config_error "a bad config value" "$tmp/value.ini"
echo "console script smoke run passed"

# Cases of tests/cli_args_test.sh, sourced by it, one per line:
#   c NAME EXIT STDOUT-CKSUM STDERR-ERE ARG...
# EXIT and STDOUT-CKSUM are pinned (--regen rewrites them); the stderr
# ERE is written by hand ('' = not checked). $T is a preset target;
# $NOSOCK a socket path that cannot be created; $NOCKPT / $NOFIT an
# unopenable checkpoint / fit target file. Input files (w.trace,
# row_cycle.cmdtrace, violating.trace, ddr3_1gb.dram, defective.dram,
# fit_ddr3_vendor_low.json) sit in the working directory.

# --- help, commands, targets ----------------------------------------
c help.flag 0 1513146-10844 '' --help
c help.short 0 1513146-10844 '' -h
c help.command 0 1513146-10844 '' help
c help.after_command 0 1513146-10844 '' idd "$T" --help
c none 2 4294967295-0 'usage'
c command.unknown 2 4294967295-0 'usage' bogus "$T"
c flag.before_command 2 4294967295-0 'usage|bogus' --bogus
c list.ok 0 490980524-930 '' list
c list.surplus 2 4294967295-0 "unknown argument 'extra'" list extra
c list.unknown_flag 2 4294967295-0 'unknown flag' list --bogus
c describe.ok 0 2028199422-2030 '' describe "$T"
c describe.file 0 3717188632-2036 '' describe ddr3_1gb.dram
c describe.missing_target 2 4294967295-0 'usage' describe
c describe.surplus 2 4294967295-0 "unknown argument 'junk'" describe "$T" junk
c describe.unknown_preset 2 4294967295-0 'unknown preset' describe preset:nope
c describe.defective 3 4294967295-0 'E-SYNTAX' describe defective.dram
c describe.unopenable 6 4294967295-0 'E-IO-OPEN' describe /nonexistent.dram
c describe.empty_target 6 4294967295-0 'E-IO-OPEN' describe ''
c idd.ok 0 1274937486-468 '' idd "$T"
c idd.surplus 2 4294967295-0 "unknown argument 'junk'" idd "$T" junk
c idd.unopenable 6 4294967295-0 'E-IO-OPEN' idd /nonexistent.dram
c idd.unknown_flag 2 4294967295-0 'unknown flag' idd "$T" --bogus
c idd.unknown_flag_value 2 4294967295-0 'unknown flag' idd "$T" --samples=5
c json.ok 0 2633177386-1403 '' json "$T"
c emit.ok 0 107759389-3840 '' emit "$T"
c schemes.ok 0 2477214250-1661 '' schemes "$T"
c timing.ok 0 2968829687-554 '' timing "$T"
c pattern.ok 0 1000954768-1019 '' pattern "$T" act nop nop rd nop nop pre
c pattern.empty 2 4294967295-0 'missing <op>' pattern "$T"
c pattern.bad_op 2 4294967295-0 "unknown op" pattern "$T" act bogus

# --- global flags -----------------------------------------------------
c lint.preset 0 4294967295-0 '' --lint "$T"
c lint.file 0 4294967295-0 '' --lint ddr3_1gb.dram
c lint.after_command 0 4294967295-0 '' describe ddr3_1gb.dram --lint
c lint.defective 3 4294967295-0 'E-SYNTAX' --lint defective.dram
c lint.defective_json 3 1073221811-519 '' --lint --diag-format=json defective.dram
c lint.unopenable 6 4294967295-0 'E-IO-OPEN' --lint /nonexistent.dram
c lint.empty_target 6 4294967295-0 'E-IO-OPEN' --lint ''
c lint.empty_target_after_command 6 4294967295-0 'E-IO-OPEN' idd '' --lint
c lint.no_target 2 4294967295-0 'usage' --lint
c diag_format.text 0 1274937486-468 '' idd "$T" --diag-format=text
c diag_format.json 0 1274937486-468 '' --diag-format=json idd "$T"
c diag_format.bad 2 4294967295-0 'text\|json' --diag-format=xml idd "$T"
c metrics_out.two_token 0 1274937486-468 '' idd "$T" --metrics-out m.json
c metrics_out.equals 0 1274937486-468 '' --metrics-out=m2.json idd "$T"
c metrics_out.missing 2 4294967295-0 'metrics-out' idd "$T" --metrics-out
c metrics_out.empty 2 4294967295-0 'metrics-out' idd "$T" --metrics-out=
c trace_out.two_token 0 1274937486-468 '' --trace-out t.json idd "$T"
c trace_out.equals 0 1274937486-468 '' idd "$T" --trace-out=t2.json
c trace_out.missing 2 4294967295-0 'trace-out' idd "$T" --trace-out
c ready_marker.ok 0 1473410455-1404 'VDRAM-READY' trends --ready-marker
c jobs.lo 0 1274937486-468 '' idd "$T" --jobs=0
c jobs.hi 0 1274937486-468 '' idd "$T" --jobs=1024
c jobs.above 2 4294967295-0 '--jobs' idd "$T" --jobs=1025
c jobs.below 2 4294967295-0 '--jobs' idd "$T" --jobs=-1
c jobs.nan 2 4294967295-0 '--jobs' idd "$T" --jobs=abc
c task_timeout.ok 0 1473410455-1404 '' trends --task-timeout=30
c task_timeout.lo 0 1274937486-468 '' idd "$T" --task-timeout=0.001
c task_timeout.hi 0 1274937486-468 '' idd "$T" --task-timeout=86400
c task_timeout.above 2 4294967295-0 '--task-timeout must be a number in \[0\.001, 86400\]' idd "$T" --task-timeout=86401
c task_timeout.below 2 4294967295-0 '--task-timeout' idd "$T" --task-timeout=0
c task_timeout.nan 2 4294967295-0 '--task-timeout' idd "$T" --task-timeout=abc
c checkpoint.ok 0 1473410455-1404 '' trends --checkpoint=trends.jsonl
c checkpoint.resume 0 1473410455-1404 '' trends --checkpoint=trends.jsonl --resume
c checkpoint.empty 2 4294967295-0 'checkpoint' idd "$T" --checkpoint=
c resume.ok 0 1274937486-468 '' idd "$T" --resume

# --- sensitivity, trends ----------------------------------------------
c sensitivity.grouped 0 3361265039-2112 '' sensitivity "$T"
c sensitivity.detailed 0 2698159517-7254 '' sensitivity "$T" --detailed
c sensitivity.flag_first 0 2698159517-7254 '' sensitivity --detailed "$T"
c sensitivity.surplus 2 4294967295-0 "unknown argument 'extra'" sensitivity "$T" extra --detailed
c sensitivity.checkpoint_unopenable 6 4294967295-0 'E-CKPT-OPEN' sensitivity "$T" "$NOCKPT"
c trends.box 0 1473410455-1404 '' trends
c trends.csv 0 892905873-669 '' trends --csv
c trends.surplus 2 4294967295-0 "unknown argument 'extra'" trends extra --csv
c trends.unknown_flag 2 4294967295-0 'unknown flag' trends --json
c trends.checkpoint_unopenable 6 4294967295-0 'E-CKPT-OPEN' trends "$NOCKPT"

# --- montecarlo -------------------------------------------------------
c montecarlo.ok 0 2475300712-783 '' montecarlo "$T" --samples=20 --seed=3
c montecarlo.json 0 1782457797-981 '' montecarlo "$T" --samples=20 --json
c montecarlo.flag_first 0 1864399524-783 '' montecarlo --samples=5 "$T"
c montecarlo.samples.lo 0 4092142289-783 '' montecarlo "$T" --samples=1
c montecarlo.samples.hi 6 4294967295-0 'E-CKPT-OPEN' montecarlo "$T" --samples=10000000 "$NOCKPT"
c montecarlo.samples.below 2 4294967295-0 '--samples' montecarlo "$T" --samples=0
c montecarlo.samples.above 2 4294967295-0 '--samples' montecarlo "$T" --samples=10000001
c montecarlo.samples.nan 2 4294967295-0 '--samples' montecarlo "$T" --samples=abc
c montecarlo.samples.suffix 2 4294967295-0 '--samples' montecarlo "$T" --samples=5x
c montecarlo.seed.lo 0 354054579-783 '' montecarlo "$T" --samples=5 --seed=0
c montecarlo.seed.hi 0 911515042-783 '' montecarlo "$T" --samples=5 --seed=9223372036854775807
c montecarlo.seed.below 2 4294967295-0 '--seed' montecarlo "$T" --samples=5 --seed=-1
c montecarlo.seed.nan 2 4294967295-0 '--seed' montecarlo "$T" --samples=5 --seed=abc
c montecarlo.seed.overflow 2 4294967295-0 '--seed.*\[0, 9223372036854775807\]' montecarlo "$T" --samples=5 --seed=99999999999999999999
c montecarlo.unknown_flag 2 4294967295-0 'unknown flag' montecarlo "$T" --sample=5

# --- sweep ------------------------------------------------------------
c sweep.ok 0 1996793831-473 '' sweep "$T" "Bitline capacitance" 0.9 1.0 1.1
c sweep.lo 0 1496143108-347 '' sweep "$T" "Bitline capacitance" 0.001
c sweep.hi 0 2967433846-342 '' sweep "$T" "Bitline capacitance" 1000
c sweep.above 2 4294967295-0 "bad factor '1001'.*\[0\.001, 1000\]" sweep "$T" "Bitline capacitance" 1001
c sweep.zero 2 4294967295-0 'bad factor' sweep "$T" "Bitline capacitance" 0
c sweep.negative 2 4294967295-0 'bad factor' sweep "$T" "Bitline capacitance" -1
c sweep.garbage 2 4294967295-0 "bad factor '1\.2x'.*\[0\.001, 1000\]" sweep "$T" "Bitline capacitance" 1.2x nan inf
c sweep.nan 2 4294967295-0 'bad factor' sweep "$T" "Bitline capacitance" abc
c sweep.unknown_parameter 2 4294967295-0 'unknown parameter' sweep "$T" bogus 1.0
c sweep.no_factor 2 4294967295-0 'usage' sweep "$T" "Bitline capacitance"
c sweep.no_parameter 2 4294967295-0 'usage' sweep "$T"
c sweep.checkpoint_unopenable 6 4294967295-0 'E-CKPT-OPEN' sweep "$T" "Bitline capacitance" 1.0 "$NOCKPT"

# --- fit --------------------------------------------------------------
c fit.list_parameters 0 977725506-2227 '' fit --list-parameters
c fit.list_parameters_target 0 977725506-2227 '' fit "$T" --list-parameters
c fit.list_parameters_json 0 977725506-2227 '' fit --list-parameters --json
c fit.run 0 4256889099-3845 '' fit "$T" --targets=fit_ddr3_vendor_low.json --starts=1 --max-generations=2 --seed=1
c fit.run_json 0 3813731769-987 '' fit "$T" --targets=fit_ddr3_vendor_low.json --starts=1 --max-generations=2 --json
c fit.report 0 4256889099-3845 '' fit "$T" --targets=fit_ddr3_vendor_low.json --starts=1 --max-generations=2 --report=fit.json
c fit.no_spec 2 4294967295-0 'targets' fit "$T"
c fit.targets_unopenable 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT"
c fit.empty_target 6 4294967295-0 'E-IO-OPEN' fit '' "$NOFIT"
c fit.datasheet.ddr3 6 4294967295-0 'E-IO-OPEN' fit "$T" --datasheet=ddr3 "$NOFIT"
c fit.datasheet.ddr2 6 4294967295-0 'E-IO-OPEN' fit "$T" --datasheet=ddr2 "$NOFIT"
c fit.datasheet.bad 2 4294967295-0 'ddr2' fit "$T" --datasheet=ddr4
c fit.datasheet.needs_rate 2 4294967295-0 'rate' fit "$T" --datasheet=ddr3
c fit.rate.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --rate=1
c fit.rate.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --rate=1e6
c fit.rate.below 2 4294967295-0 '--rate' fit "$T" "$NOFIT" --rate=0.9
c fit.rate.above 2 4294967295-0 '--rate' fit "$T" "$NOFIT" --rate=1000001
c fit.rate.nan 2 4294967295-0 '--rate' fit "$T" "$NOFIT" --rate=abc
c fit.width.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --width=1
c fit.width.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --width=128
c fit.width.below 2 4294967295-0 '--width' fit "$T" "$NOFIT" --width=0
c fit.width.above 2 4294967295-0 '--width' fit "$T" "$NOFIT" --width=129
c fit.width.nan 2 4294967295-0 '--width' fit "$T" "$NOFIT" --width=abc
c fit.edge.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --edge=0
c fit.edge.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --edge=1
c fit.edge.below 2 4294967295-0 '--edge' fit "$T" "$NOFIT" --edge=-0.01
c fit.edge.above 2 4294967295-0 '--edge' fit "$T" "$NOFIT" --edge=1.01
c fit.edge.nan 2 4294967295-0 '--edge' fit "$T" "$NOFIT" --edge=abc
c fit.starts.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --starts=1
c fit.starts.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --starts=64
c fit.starts.below 2 4294967295-0 '--starts' fit "$T" "$NOFIT" --starts=0
c fit.starts.above 2 4294967295-0 '--starts' fit "$T" "$NOFIT" --starts=65
c fit.starts.nan 2 4294967295-0 '--starts' fit "$T" "$NOFIT" --starts=abc
c fit.max_generations.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --max-generations=1
c fit.max_generations.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --max-generations=100000
c fit.max_generations.below 2 4294967295-0 '--max-generations' fit "$T" "$NOFIT" --max-generations=0
c fit.max_generations.above 2 4294967295-0 '--max-generations' fit "$T" "$NOFIT" --max-generations=100001
c fit.max_generations.nan 2 4294967295-0 '--max-generations' fit "$T" "$NOFIT" --max-generations=abc
c fit.step.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --step=1e-9
c fit.step.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --step=10
c fit.step.below 2 4294967295-0 '--step' fit "$T" "$NOFIT" --step=0
c fit.step.above 2 4294967295-0 '--step' fit "$T" "$NOFIT" --step=10.01
c fit.step.nan 2 4294967295-0 '--step' fit "$T" "$NOFIT" --step=abc
c fit.shrink.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --shrink=1e-9
c fit.shrink.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --shrink=0.999
c fit.shrink.below 2 4294967295-0 '--shrink' fit "$T" "$NOFIT" --shrink=0
c fit.shrink.above 2 4294967295-0 '--shrink' fit "$T" "$NOFIT" --shrink=1
c fit.shrink.nan 2 4294967295-0 '--shrink' fit "$T" "$NOFIT" --shrink=abc
c fit.min_step.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --min-step=1e-12
c fit.min_step.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --min-step=1
c fit.min_step.below 2 4294967295-0 '--min-step' fit "$T" "$NOFIT" --min-step=0
c fit.min_step.above 2 4294967295-0 '--min-step' fit "$T" "$NOFIT" --min-step=1.01
c fit.min_step.nan 2 4294967295-0 '--min-step' fit "$T" "$NOFIT" --min-step=abc
c fit.spread.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --spread=0
c fit.spread.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --spread=10
c fit.spread.below 2 4294967295-0 '--spread' fit "$T" "$NOFIT" --spread=-0.01
c fit.spread.above 2 4294967295-0 '--spread' fit "$T" "$NOFIT" --spread=10.01
c fit.spread.nan 2 4294967295-0 '--spread' fit "$T" "$NOFIT" --spread=abc
c fit.seed.lo 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --seed=0
c fit.seed.hi 6 4294967295-0 'E-IO-OPEN' fit "$T" "$NOFIT" --seed=9223372036854775807
c fit.seed.below 2 4294967295-0 '--seed' fit "$T" "$NOFIT" --seed=-1
c fit.seed.nan 2 4294967295-0 '--seed' fit "$T" "$NOFIT" --seed=abc
c fit.seed.overflow 2 4294967295-0 '--seed.*\[0, 9223372036854775807\]' fit "$T" "$NOFIT" --seed=99999999999999999999
c fit.unknown_flag 2 4294967295-0 'unknown flag' fit "$T" "$NOFIT" --bogus

# --- workload, gen-trace ----------------------------------------------
c workload.open 0 1934880435-1028 '' workload "$T" w.trace
c workload.closed 0 3993223672-1027 '' workload "$T" w.trace --closed
c workload.flag_first 0 3993223672-1027 '' workload "$T" --closed w.trace
c workload.surplus 2 4294967295-0 "unknown argument 'extra'" workload "$T" w.trace extra --closed
c workload.no_trace 2 4294967295-0 'usage' workload "$T"
c workload.unopenable 6 4294967295-0 'E-IO-OPEN' workload "$T" /nonexistent.trace
c gen_trace.ok 0 3937580489-102 '' gen-trace "$T" random 5
c gen_trace.default_count 0 1982186526-9162 '' gen-trace "$T" stream
c gen_trace.count.lo 0 59703021-54 '' gen-trace "$T" random 1
c gen_trace.count.hi 2 4294967295-0 'bogus' gen-trace "$T" bogus 100000000
c gen_trace.count.below 2 4294967295-0 '100000000' gen-trace "$T" random 0
c gen_trace.count.above 2 4294967295-0 '100000000' gen-trace "$T" random 100000001
c gen_trace.count.nan 2 4294967295-0 '100000000' gen-trace "$T" random abc
c gen_trace.count.suffix 2 4294967295-0 "integer in \[1, 100000000\], got '5x'" gen-trace "$T" random 5x
c gen_trace.bad_kind 2 4294967295-0 'bogus' gen-trace "$T" bogus 5
c gen_trace.no_kind 2 4294967295-0 'usage' gen-trace "$T"
c gen_trace.surplus 2 4294967295-0 "unknown argument 'extra'" gen-trace "$T" random 5 extra

# --- sched ------------------------------------------------------------
c sched.ok 0 3426142024-667 '' sched "$T" --count=50
c sched.empty_target 6 4294967295-0 'E-IO-OPEN' sched '' --count=50
c sched.flag_first 0 2975123946-152 'frfcfs' sched --count=5 "$T"
c sched.matrix 0 2366688655-7296 '' sched "$T" --matrix --count=50
c sched.workload.ok 0 356515476-1214 '' sched "$T" --count=50 --workload=zipf
c sched.workload.bad 2 4294967295-0 'bogus' sched "$T" --workload=bogus
c sched.map.ok 0 3813469452-701 '' sched "$T" --count=50 --map=xor
c sched.map.bad 2 4294967295-0 'bogus' sched "$T" --map=bogus
c sched.policy.ok 0 401880389-667 '' sched "$T" --count=50 --policy=inorder
c sched.policy.bad 2 4294967295-0 'bogus' sched "$T" --policy=bogus
c sched.page.ok 0 3130950736-1235 '' sched "$T" --count=50 --page=closed
c sched.page.bad 2 4294967295-0 'bogus' sched "$T" --page=bogus
c sched.count.lo 0 1362761576-68 '' sched "$T" --count=1
c sched.count.hi 6 4294967295-0 'E-CKPT-OPEN' sched "$T" --matrix --count=10000000 "$NOCKPT"
c sched.count.below 2 4294967295-0 '--count' sched "$T" --count=0
c sched.count.above 2 4294967295-0 '--count' sched "$T" --count=10000001
c sched.count.nan 2 4294967295-0 '--count' sched "$T" --count=abc
c sched.seed.lo 0 356449108-304 '' sched "$T" --count=20 --seed=0
c sched.seed.hi 0 2267070838-388 '' sched "$T" --count=20 --seed=4294967295
c sched.seed.below 2 4294967295-0 '--seed' sched "$T" --count=20 --seed=-1
c sched.seed.above 2 4294967295-0 '--seed' sched "$T" --count=20 --seed=4294967296
c sched.seed.nan 2 4294967295-0 '--seed' sched "$T" --count=20 --seed=abc
c sched.window.lo 0 401880389-667 '' sched "$T" --count=50 --window=1
c sched.window.hi 0 484506693-668 '' sched "$T" --count=50 --window=4096
c sched.window.below 2 4294967295-0 '--window' sched "$T" --count=50 --window=0
c sched.window.above 2 4294967295-0 '--window' sched "$T" --count=50 --window=4097
c sched.window.nan 2 4294967295-0 '--window' sched "$T" --count=50 --window=abc
c sched.run_length.lo 0 3426142024-667 '' sched "$T" --count=50 --run-length=1
c sched.run_length.hi 0 3426142024-667 '' sched "$T" --count=50 --run-length=1000000
c sched.run_length.below 2 4294967295-0 '--run-length' sched "$T" --count=50 --run-length=0
c sched.run_length.above 2 4294967295-0 '--run-length' sched "$T" --count=50 --run-length=1000001
c sched.run_length.nan 2 4294967295-0 '--run-length' sched "$T" --count=50 --run-length=abc
c sched.write_frac.lo 0 3236326161-652 '' sched "$T" --count=50 --write-frac=0
c sched.write_frac.hi 0 3765221479-702 '' sched "$T" --count=50 --write-frac=1
c sched.write_frac.below 2 4294967295-0 '--write-frac' sched "$T" --count=50 --write-frac=-0.01
c sched.write_frac.above 2 4294967295-0 '--write-frac' sched "$T" --count=50 --write-frac=1.01
c sched.write_frac.nan 2 4294967295-0 '--write-frac' sched "$T" --count=50 --write-frac=abc
c sched.locality.lo 0 3053103558-1211 '' sched "$T" --count=50 --locality=0
c sched.locality.hi 0 3021571456-522 '' sched "$T" --count=50 --locality=1
c sched.locality.below 2 4294967295-0 '--locality' sched "$T" --count=50 --locality=-0.01
c sched.locality.above 2 4294967295-0 '--locality' sched "$T" --count=50 --locality=1.01
c sched.locality.nan 2 4294967295-0 '--locality' sched "$T" --count=50 --locality=abc
c sched.zipf.lo 0 2968588784-1216 '' sched "$T" --count=50 --workload=zipf --zipf=0
c sched.zipf.hi 0 2707528481-443 '' sched "$T" --count=50 --workload=zipf --zipf=4
c sched.zipf.below 2 4294967295-0 '--zipf' sched "$T" --count=50 --zipf=-0.01
c sched.zipf.above 2 4294967295-0 '--zipf' sched "$T" --count=50 --zipf=4.01
c sched.zipf.nan 2 4294967295-0 '--zipf' sched "$T" --count=50 --zipf=abc
c sched.jump.lo 0 2099053387-1212 '' sched "$T" --count=50 --workload=chase --jump=0
c sched.jump.hi 0 2099053387-1212 '' sched "$T" --count=50 --workload=chase --jump=1
c sched.jump.below 2 4294967295-0 '--jump' sched "$T" --count=50 --jump=-0.01
c sched.jump.above 2 4294967295-0 '--jump' sched "$T" --count=50 --jump=1.01
c sched.jump.nan 2 4294967295-0 '--jump' sched "$T" --count=50 --jump=abc
c sched.surplus 2 4294967295-0 'unknown argument' sched "$T" extra
c sched.unknown_flag 2 4294967295-0 'unknown flag' sched "$T" --bogus

# --- trace ------------------------------------------------------------
c trace.ok 0 251157170-984 '' trace "$T" row_cycle.cmdtrace
c trace.check 0 251157170-984 '' trace "$T" row_cycle.cmdtrace --check
c trace.check_violations 4 1049389176-981 'violation' trace "$T" violating.trace --check
c trace.serial 0 251157170-984 '' trace "$T" row_cycle.cmdtrace --serial
c trace.jobs 0 251157170-984 '' trace "$T" row_cycle.cmdtrace --jobs=2
c trace.window.ok 0 414722170-1739 '' trace "$T" row_cycle.cmdtrace --window=4
c trace.window.zero 4 4294967295-0 'E-TRACE-WINDOW' trace "$T" row_cycle.cmdtrace --window=0
c trace.window.negative 4 4294967295-0 'E-TRACE-WINDOW' trace "$T" row_cycle.cmdtrace --window=-5
c trace.window.nan 2 4294967295-0 'integer cycle count' trace "$T" row_cycle.cmdtrace --window=abc
c trace.format.text 0 251157170-984 '' trace "$T" row_cycle.cmdtrace --format=text
c trace.format.json 0 276464925-764 '' trace "$T" row_cycle.cmdtrace --format=json --window=8
c trace.format.csv 0 2389854820-287 '' trace "$T" row_cycle.cmdtrace --format=csv --window=8
c trace.format.csv_no_window 2 4294967295-0 'window' trace "$T" row_cycle.cmdtrace --format=csv
c trace.format.bad 2 4294967295-0 'text\|csv\|json' trace "$T" row_cycle.cmdtrace --format=xml
c trace.no_trace 2 4294967295-0 'usage' trace "$T"
c trace.surplus 2 4294967295-0 'extra' trace "$T" row_cycle.cmdtrace extra
c trace.unopenable 6 4294967295-0 'E-IO-OPEN' trace "$T" /nonexistent.trace
c trace.empty_target 6 4294967295-0 'E-IO-OPEN' trace '' row_cycle.cmdtrace

# --- serve ------------------------------------------------------------
c serve.ok 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK"
c serve.worker_argv 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --queue=32 --deadline=10 --max-deadline=60 --idle-timeout=300 --cache=4 --jobs=1
c serve.worker_argv_zero 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --queue=1 --deadline=0 --max-deadline=0.5 --idle-timeout=0 --cache=1
c serve.no_socket 2 4294967295-0 'socket' serve
c serve.surplus 2 4294967295-0 'extra' serve --socket="$NOSOCK" extra
c serve.unknown_flag 2 4294967295-0 'unknown flag' serve --socket="$NOSOCK" --bogus
c serve.port.lo 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --port=1
c serve.port.hi 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --port=65535
c serve.port.below 2 4294967295-0 '--port' serve --socket="$NOSOCK" --port=0
c serve.port.above 2 4294967295-0 '--port' serve --socket="$NOSOCK" --port=65536
c serve.port.nan 2 4294967295-0 '--port' serve --socket="$NOSOCK" --port=abc
c serve.queue.lo 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --queue=1
c serve.queue.hi 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --queue=1048576
c serve.queue.below 2 4294967295-0 '--queue' serve --socket="$NOSOCK" --queue=0
c serve.queue.above 2 4294967295-0 '--queue' serve --socket="$NOSOCK" --queue=1048577
c serve.queue.nan 2 4294967295-0 '--queue' serve --socket="$NOSOCK" --queue=abc
c serve.deadline.lo 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --deadline=0
c serve.deadline.hi 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --deadline=86400
c serve.deadline.below 2 4294967295-0 '--deadline' serve --socket="$NOSOCK" --deadline=-0.01
c serve.deadline.above 2 4294967295-0 '--deadline must be a number in \[0, 86400\]' serve --socket="$NOSOCK" --deadline=86401
c serve.deadline.nan 2 4294967295-0 "--deadline must be a number in \[0, 86400\], got 'abc'" serve --socket="$NOSOCK" --deadline=abc
c serve.max_deadline.lo 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --max-deadline=0.001
c serve.max_deadline.hi 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --max-deadline=86400
c serve.max_deadline.below 2 4294967295-0 '--max-deadline' serve --socket="$NOSOCK" --max-deadline=0
c serve.max_deadline.above 2 4294967295-0 '--max-deadline must be a number in \[0\.001, 86400\]' serve --socket="$NOSOCK" --max-deadline=86401
c serve.max_deadline.nan 2 4294967295-0 '--max-deadline' serve --socket="$NOSOCK" --max-deadline=abc
c serve.idle_timeout.lo 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --idle-timeout=0
c serve.idle_timeout.hi 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --idle-timeout=86400
c serve.idle_timeout.below 2 4294967295-0 '--idle-timeout' serve --socket="$NOSOCK" --idle-timeout=-0.01
c serve.idle_timeout.above 2 4294967295-0 '--idle-timeout must be a number in \[0, 86400\]' serve --socket="$NOSOCK" --idle-timeout=86401
c serve.idle_timeout.nan 2 4294967295-0 "--idle-timeout must be a number in \[0, 86400\], got 'abc'" serve --socket="$NOSOCK" --idle-timeout=abc
c serve.cache.lo 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --cache=1
c serve.cache.hi 1 4294967295-0 'E-SERVE-SOCKET' serve --socket="$NOSOCK" --cache=4096
c serve.cache.below 2 4294967295-0 '--cache' serve --socket="$NOSOCK" --cache=0
c serve.cache.above 2 4294967295-0 '--cache' serve --socket="$NOSOCK" --cache=4097
c serve.cache.nan 2 4294967295-0 '--cache' serve --socket="$NOSOCK" --cache=abc

# --- fleet ------------------------------------------------------------
c fleet.ok 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK"
c fleet.worker_dir 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --worker-dir=/nonexistent/workers
c fleet.port_needs_dir 2 4294967295-0 'worker-dir' fleet --port=7000
c fleet.no_socket 2 4294967295-0 'socket' fleet
c fleet.surplus 2 4294967295-0 'extra' fleet --socket="$NOSOCK" extra
c fleet.unknown_flag 2 4294967295-0 'unknown flag' fleet --socket="$NOSOCK" --bogus
c fleet.port.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --port=1
c fleet.port.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --port=65535
c fleet.port.below 2 4294967295-0 '--port' fleet --socket="$NOSOCK" --port=0
c fleet.port.above 2 4294967295-0 '--port' fleet --socket="$NOSOCK" --port=65536
c fleet.port.nan 2 4294967295-0 '--port' fleet --socket="$NOSOCK" --port=abc
c fleet.workers.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --workers=1
c fleet.workers.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --workers=64
c fleet.workers.below 2 4294967295-0 '--workers' fleet --socket="$NOSOCK" --workers=0
c fleet.workers.above 2 4294967295-0 '--workers' fleet --socket="$NOSOCK" --workers=65
c fleet.workers.nan 2 4294967295-0 '--workers' fleet --socket="$NOSOCK" --workers=abc
c fleet.restart_budget.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --restart-budget=0
c fleet.restart_budget.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --restart-budget=1000
c fleet.restart_budget.below 2 4294967295-0 '--restart-budget' fleet --socket="$NOSOCK" --restart-budget=-1
c fleet.restart_budget.above 2 4294967295-0 '--restart-budget' fleet --socket="$NOSOCK" --restart-budget=1001
c fleet.restart_budget.nan 2 4294967295-0 '--restart-budget' fleet --socket="$NOSOCK" --restart-budget=abc
c fleet.restart_base_ms.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --restart-base-ms=1
c fleet.restart_base_ms.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --restart-base-ms=60000
c fleet.restart_base_ms.below 2 4294967295-0 '--restart-base-ms' fleet --socket="$NOSOCK" --restart-base-ms=0
c fleet.restart_base_ms.above 2 4294967295-0 '--restart-base-ms' fleet --socket="$NOSOCK" --restart-base-ms=60001
c fleet.restart_base_ms.nan 2 4294967295-0 '--restart-base-ms' fleet --socket="$NOSOCK" --restart-base-ms=abc
c fleet.heartbeat.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --heartbeat=0.001
c fleet.heartbeat.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --heartbeat=86400
c fleet.heartbeat.below 2 4294967295-0 '--heartbeat' fleet --socket="$NOSOCK" --heartbeat=0
c fleet.heartbeat.above 2 4294967295-0 '--heartbeat must be a number in \[0\.001, 86400\]' fleet --socket="$NOSOCK" --heartbeat=86401
c fleet.heartbeat.nan 2 4294967295-0 '--heartbeat' fleet --socket="$NOSOCK" --heartbeat=abc
c fleet.heartbeat.suffix 2 4294967295-0 "--heartbeat must be a number in \[0\.001, 86400\], got '2x'" fleet --socket="$NOSOCK" --heartbeat=2x
c fleet.heartbeat_deadline.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --heartbeat-deadline=0.001
c fleet.heartbeat_deadline.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --heartbeat-deadline=86400
c fleet.heartbeat_deadline.below 2 4294967295-0 '--heartbeat-deadline' fleet --socket="$NOSOCK" --heartbeat-deadline=0
c fleet.heartbeat_deadline.above 2 4294967295-0 '--heartbeat-deadline must be a number in \[0\.001, 86400\]' fleet --socket="$NOSOCK" --heartbeat-deadline=86401
c fleet.heartbeat_deadline.nan 2 4294967295-0 '--heartbeat-deadline' fleet --socket="$NOSOCK" --heartbeat-deadline=abc
c fleet.drain_timeout.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --drain-timeout=0.001
c fleet.drain_timeout.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --drain-timeout=86400
c fleet.drain_timeout.below 2 4294967295-0 '--drain-timeout' fleet --socket="$NOSOCK" --drain-timeout=0
c fleet.drain_timeout.above 2 4294967295-0 '--drain-timeout must be a number in \[0\.001, 86400\]' fleet --socket="$NOSOCK" --drain-timeout=86401
c fleet.drain_timeout.nan 2 4294967295-0 '--drain-timeout' fleet --socket="$NOSOCK" --drain-timeout=abc
c fleet.failover_wait.lo 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --failover-wait=0.001
c fleet.failover_wait.hi 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --failover-wait=86400
c fleet.failover_wait.below 2 4294967295-0 '--failover-wait' fleet --socket="$NOSOCK" --failover-wait=0
c fleet.failover_wait.above 2 4294967295-0 '--failover-wait must be a number in \[0\.001, 86400\]' fleet --socket="$NOSOCK" --failover-wait=86401
c fleet.failover_wait.nan 2 4294967295-0 '--failover-wait' fleet --socket="$NOSOCK" --failover-wait=abc
c fleet.queue.ok 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --queue=1048576
c fleet.queue.above 2 4294967295-0 '--queue' fleet --socket="$NOSOCK" --queue=1048577
c fleet.deadline.ok 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --deadline=0
c fleet.deadline.below 2 4294967295-0 '--deadline' fleet --socket="$NOSOCK" --deadline=-0.01
c fleet.deadline.nan 2 4294967295-0 "--deadline must be a number in \[0, 86400\], got 'abc'" fleet --socket="$NOSOCK" --deadline=abc
c fleet.max_deadline.ok 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --max-deadline=86400
c fleet.max_deadline.below 2 4294967295-0 '--max-deadline' fleet --socket="$NOSOCK" --max-deadline=0
c fleet.idle_timeout.ok 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --idle-timeout=0
c fleet.idle_timeout.below 2 4294967295-0 '--idle-timeout' fleet --socket="$NOSOCK" --idle-timeout=-0.01
c fleet.cache.ok 1 4294967295-0 'E-FLEET-SOCKET' fleet --socket="$NOSOCK" --cache=4096
c fleet.cache.above 2 4294967295-0 '--cache' fleet --socket="$NOSOCK" --cache=4097

# --- serve-send -------------------------------------------------------
c serve_send.ok 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK"
c serve_send.no_socket 2 4294967295-0 'socket' serve-send
c serve_send.surplus 2 4294967295-0 'extra' serve-send --socket="$NOSOCK" extra
c serve_send.unknown_flag 2 4294967295-0 'unknown flag' serve-send --socket="$NOSOCK" --bogus
c serve_send.port.lo 2 4294967295-0 'no requests' serve-send --port=1
c serve_send.port.hi 2 4294967295-0 'no requests' serve-send --port=65535
c serve_send.port.below 2 4294967295-0 '--port' serve-send --port=0
c serve_send.port.above 2 4294967295-0 '--port' serve-send --port=65536
c serve_send.port.nan 2 4294967295-0 '--port' serve-send --port=abc
c serve_send.retries.lo 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK" --retries=0
c serve_send.retries.hi 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK" --retries=100
c serve_send.retries.below 2 4294967295-0 '--retries' serve-send --socket="$NOSOCK" --retries=-1
c serve_send.retries.above 2 4294967295-0 '--retries' serve-send --socket="$NOSOCK" --retries=101
c serve_send.retries.nan 2 4294967295-0 '--retries' serve-send --socket="$NOSOCK" --retries=abc
c serve_send.retry_base_ms.lo 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK" --retry-base-ms=1
c serve_send.retry_base_ms.hi 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK" --retry-base-ms=60000
c serve_send.retry_base_ms.below 2 4294967295-0 '--retry-base-ms' serve-send --socket="$NOSOCK" --retry-base-ms=0
c serve_send.retry_base_ms.above 2 4294967295-0 '--retry-base-ms' serve-send --socket="$NOSOCK" --retry-base-ms=60001
c serve_send.retry_base_ms.nan 2 4294967295-0 '--retry-base-ms' serve-send --socket="$NOSOCK" --retry-base-ms=abc
c serve_send.timeout.lo 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK" --timeout=0.001
c serve_send.timeout.hi 2 4294967295-0 'no requests' serve-send --socket="$NOSOCK" --timeout=86400
c serve_send.timeout.below 2 4294967295-0 '--timeout' serve-send --socket="$NOSOCK" --timeout=0
c serve_send.timeout.above 2 4294967295-0 '--timeout' serve-send --socket="$NOSOCK" --timeout=86401
c serve_send.timeout.nan 2 4294967295-0 '--timeout' serve-send --socket="$NOSOCK" --timeout=abc

# Convenience aliases mirroring the CI jobs, so "it failed in CI" is
# always reproducible with one local command.

.PHONY: build test lint no-shims net-deps docs ledger-check ledger sweep census gates pruning-gate shard-gate planner-gate compiled-gate serving-gate fabric-gate telemetry-gate counters-gate

build:
	cargo build --release

test:
	cargo test -q --workspace

lint: no-shims net-deps
	cargo fmt --all --check
	cargo clippy --workspace --all-targets -- -D warnings

# The wire layer sits under the engine: cheetah-net's breakdown records
# what ran, never how a layout was decided, so it needs nothing from
# cheetah-core. Fail if it depends on it again.
net-deps:
	@deps=$$(cargo tree -p cheetah-net -e normal --offline) && ! echo "$$deps" | grep cheetah-core

# There is one multi-shard entry point (cheetah_runtime::execute over an
# ExecPlan), one run type (ExecRun), one wall-clock harness
# (cheetah-ledger), one §7.2 event loop (cheetah_net::rack), one row
# encoder (PruningOperator::encode_part) under one encode -> prune loop,
# one survivor representation (row selections: no entry type, no
# per-row key encoder beside the operators' walk), no arm selector, and
# one round, one way to lay a layout out (no input rounds, mid-run
# supervisor, planner-in-the-constructor layout or calibration probe),
# and one map in the session: an entry per key, its layout (no second
# cache, shape string or stamp to keep them coherent, and no option
# that had one value everywhere), no measured survivor hint for a
# planner, one way survivors travel: at
# the end of each shard job, never over a live channel (no NIC-paced
# depth, overlap timeline or per-request concurrency re-pricing, and no
# ingest model riding a layout), one shard job on every path (no
# per-worker frame arena, no model-derived batch size, no second
# slice-fold door), one layout value (a spec: no fitted plan, no wrapper
# around it and no record of it on a layout), one merge fold
# (merge_shard_outputs folds whole partials, fault mode's too: no
# per-item accumulator beside it, no GROUP BY special case, no
# one-output branch in the runtime), one worker per
# core (the pool is the machine's width: no floor under the pool, no
# settable width, no lock around its injector, no shard-count knob), one
# shard-count rule (cheetah_db::planner::units: rows over the cores, a
# JOIN's floor; no pruned-shard cost walk or key sampler, no survivor
# estimate, no rack-ingest query), one routing function: every layout
# is hash-routed, so a layout is its shard count (no range partitioner,
# quantile fit, cut-point check or sort of the routing keys, and no
# served range row in the sweep),
# no breakdown field nothing reads, no metric name keyed by a caller's
# tenant, one shard sweep (`shards`: no planner or crossover
# experiment asking its question again over other tables), and one
# multi-tenant harness (the ledger's `tenants_small`, its properties
# gated by `serving_contract`: no `serving` experiment, workload
# generator or wall-clock fairness test beside them), no go-direct
# verdict: the arm is the request's alone, direct unless a pin asks for
# the switch, as the checked-in arm census licenses (no deciding sight,
# measuring run, decided stage, verdict span or counter, and no per-job
# busy clock or run work sum that only a verdict read), and one way into the
# session: `run_blocking`, on the caller's thread (no submit queue,
# ticket, per-tenant scheduler, driver thread or closed-session error),
# and one HAVING second pass: the executor's candidate-key pass (no
# key-set filter program beside it that no caller builds), and one
# stopwatch per question: the ledger's adhoc_cold breaks first sight
# down by shape and the sweep times the program's route (no example
# harness re-timing either, and no public API only its own test calls),
# and one survivor transport: the path is an argument of each run, not a
# field of the plan (no per-path plan clone, no plan record on the run),
# and no stream path, not even as a name), one §7.2 binding: fault mode
# is the cluster's (a fault profile and a seed), and each shard job
# carries the rows it read through TransferSim, the switch replaying its
# verdicts and ACKing what it prunes (no frame carrier, no payload trait
# over the rack's one packet type, no frame cutter,
# no fault spec or frame size, no frame-size case axis in the generated
# gate, and no merge-routing predicate left over from the presplit
# path), and one list of kernels:
# CompiledProgram::compile (no per-query kernel predicate beside it, no
# randomized TOP N kernel that never paid, and no Spark-calibration
# field on the cluster that no caller sets), and no ALU op enum that
# nothing evaluates (the op set is one row of the switch crate's module
# table; `mul_pow2`, the one shift the TOP N ladder uses, lives in
# cheetah_core::topn), and one place that decides a key's lifecycle
# (lifecycle.rs: sight and settle over the one map, no layout enum beside
# them in the session), and one way to run a plan's shards: the caller
# claims them off one counter beside at most cores - 1 pool helpers (no
# one-shard path on the caller, no per-shard pool job, no wait that
# infers a panic from a closed channel), and no fit in the serving plane:
# a returning key's layout is its rows over the cores (no like-plan
# lookup, row-count tolerance or sibling's plan borrowed at second
# sight), and one span representation, one record set per request (a
# finished span is one flat record beside its trace's attribute buffer:
# static names and keys, copyable values, no record type beside it
# and no orphan error nothing can raise; the
# response and the trace sink share one closed record set, and a reader
# builds its own tree: no holder shares a built tree, and no attribute
# is stringified on the way in), and pins never enter the session's map:
# a pinned shard count is a layout of its own, routed per request and never held,
# so one enum says what a sight found (no visit enum beside an action
# enum, no pinned warm visit) and a key holds its tables (no plan check
# of the tables it was routed from), and no public API only its own
# tests call (no histogram merge, no row fetch by entry id).
# Fail if a deleted twin, shim, run type, harness flag, baseline file,
# do-nothing vendored stub, multi-pass kernel, bandit, entry type,
# supervisor, gate, cache or option is named anywhere again.
no-shims:
	@! grep -rnE "run_cheetah_(sharded|routed|planned|pooled|pooled_routed|presplit|streamed|streamed_resident)|plan_stream|PooledExecution|StreamedExecution|finish_sharded|ShardedRun|StreamedRun|from_units|smoke-(json|baseline|seed|[a-z]+-tolerance|compiled-speedup)|crossover-(json|baseline|tolerance)|(SMOKE|CROSSOVER)_[A-Z_]*(OUT|BASELINE|TOLERANCE|SPEEDUP)|SmokeReport|SmokeFamily|CrossoverReport|bench_baseline|crossover_baseline|BENCH_(smoke|crossover)|criterion(::|_group|_main| *=)|vendor/(criterion|serde)|use serde|serde *=|derive\([^)]*(Serialize|Deserialize)|TransferConfig|FabricConfig|stream_lossy|fn encode\(&self, src|serialize_streams|run_fused_single|max_worker_entries_of|JoinKernel|HavingKernel|KernelFilter|pick_arm|PathChooser::(new|with_registry)|ArmState|experiments::chooser|Encoded::new|<Encoded>|PacketEntry|stream_part|fn route_key|fn encode_key|RuntimeSupervisor|ReplanEvent|supervisor_sample|imbalance_factor|plan_from_keys|StreamSpec::planned|\.calibrate\(|Calibration|replan_events|runtime[-_]gate|runtime_contract|PlanCache|CachedPlan|plan_cache::|fn shape_key|Sight::(Whole|Routed)|stats_tolerance|quantum_rows|trace_capacity|channel_depth|survivor_hint|suggested_depth|overlap_seconds|merge_events|with_concurrency|concurrent_latency|batch_wire_bytes|experiments::runtime|StreamSpec|PlanDecision|master_ingest_seconds|breakdown\.plan|serve\.tenant\.|WorkerScratch|suggested_batch|ingest_slices|scratch\.frames|ingest_batch|TOPN_SLACK|reprune_top|duplicate_batches|Acc::GroupMax|max_shards|ctx\.planner\(\)|cores\.max\(8\)|Mutex<mpsc::Sender|DistinctSketch|distinct_estimate|top_key_mass|planning_latency|longest_equal_run|DEFAULT_SKETCH_K|RANGE_LOAD_FACTOR|hash_sample_load|range_sample_load|trivial_plan|all_keys_equal|range_over|PartitionerChoice|experiments::(planner|crossover|serving)|ServingWorkload|TenantSpec|ArrivalMode|fairness_ratio|skewed_tables|goes_direct|rule\.(rows|survivors|complete_us|busy_us|direct|pruned_us)|Stage::Direct|key_direct|serve\.direct\.keys|\bwork_seconds|\bbusy_seconds|Session::submit|\.submit\(|Ticket|SessionClosed|SchedState|pop_next|driver_loop|QUANTUM_ROWS|cost_rows|serve\.queue_depth|drivers:|SecondPassFilter|\.sample_repeats\(|has_external_atoms|make (first-sight|route)\b|examples/(first_sight|routing)|--example (first_sight|routing)|for_path|run\.plan\b|(\.|fn )(lookup_exact|rule_count)\b|StreamedResident|has_kernel|TopNRandKernel|Kernel::TopNRand|baseline_compression|spark_row_overhead_ns|FabricSim|bdp_window|frame_items|FaultSpec|merge_routing_agnostic|fault: Option<usize>|trait Payload|rack::Payload|AluOp|switch::alu|Layout::(Held|Under)|run_on_caller|spawn_worker_plane|await_reports|STATS_TOLERANCE|Routing \{ like|StatsFingerprint::within|fn like\(|ShardLayout|shard_plan\(|PlanReport|ShardCostPoint|KeySampler|KeyStats|Reservoir|max_load_fraction|STRIDE_READS_PER_SLOT|KeyCursor|fn key_at|PER_SHARD_OVERHEAD_SECONDS|CWORKER_ROWS_PER_SECOND|sample_size|Layout::Fitted|cheetah_serve::(units|ROWS_PER_UNIT)|fitted_range|fit_boundaries|Routing::Cuts|ShardPartitioner::Range|UnsortedShardBoundaries|served:range|SpanRecord|OrphanSpan|\bVisit::|\bAction::|Warm \{ pinned|fn is_over|merge_from|fn fetch\(|Arc<TraceTree>|impl ToString|fn finished\(" \
		crates src tests examples vendor Cargo.toml README.md .github .gitignore .claude

# The benchmark package is not a workspace member, so nothing above
# builds it: an API rename would otherwise break the benchmark silently.
ledger-check:
	cargo test --offline --manifest-path cheetah-ledger/Cargo.toml

docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# All eight named gates below: one invocation of the db crate's eight
# test binaries (one link of its dev profile, each still failing by
# name), then the serving gate's lifecycle checker in cheetah-serve.
# Their properties share one generated gate (crates/db/tests/common): a
# case drawn whole from one u64 seed, the grid (7 families x 4 layouts x
# 3 arms; the layouts one shard, hash@2, hash@7 and the served count)
# walked first once per block (as drawn, over the edge tables,
# over each routing adversary), then random draws, every case held to one
# universal check; a failing case is shrunk by halving its rows, keys,
# partitions and shards and printed with its seed.
gates:
	cargo test -q -p cheetah-db --test pruning_contract --test shard_contract --test planner_contract --test compiled_contract --test serving_contract --test fabric_contract --test telemetry_contract --test counters_contract
	cargo test -q -p cheetah-serve lifecycle

# The named CI gate: pruning contract — Q(A_Q(D)) = Q(D) on every
# generated case, whatever the storage: coded and plain copies of a table
# answer alike on the same layout and arm (both JOIN pass structures,
# 1-5 partitions, empty tables and JOINs across key types are axes of the
# case), and a JOIN whose Bloom filter prunes nothing is told apart by key
# type at the master.
pruning-gate:
	cargo test -q -p cheetah-db --test pruning_contract

# The named CI gate: shard equivalence on every generated case — all
# seven query variants x the grid's layouts (the one-shard layout, 2 and
# 7 shards, and the served layout: the one shard-count rule's count;
# every layout hash-routed) x (the
# barrier on both backends, and the direct arm: pass-through accounting,
# nothing pruned), the grid walked as drawn and again over each edge
# table (0, 1 and 3 rows, and 500 rows of one key and constant ints),
# full-range ints included,
# with the merge plane's accounting held at every point (the master's
# time is the shards' completions plus the merge; bytes, survivors and
# switch arrivals are the shards' sums; a lossless run carries nothing; a
# served layout at the rule's count), a HAVING key that
# spans the threshold only globally kept, and sharded execution
# deterministic end to end.
shard-gate:
	cargo test -q -p cheetah-db --test shard_contract

# The named CI gate: planner contract — the one shard-count rule and the
# routing keys: the generated cases, the grid walked over each routing
# adversary (no planner of random sample size: its served point is the
# rule's count, hash-routed like every layout, and no fitted plan is
# recorded on a layout), every
# point bit-identical to baseline, a served point at the rule's count;
# every layout routed again over the rebuilt tables routing alike; the
# rule's shard counts and the routing keys goldens.
planner-gate:
	cargo test -q -p cheetah-db --test planner_contract

# The named CI gate: compiled contract — the plan-time fused kernels
# (four families have one: filter, DISTINCT, GROUP BY, SKYLINE; TOP N,
# JOIN and HAVING run the interpreter on either backend and must say
# so) bit-identical to the interpreted oracle on every generated case's
# routed layout (the grid's one shard, hash@2, hash@7 and the served
# count; the grid walked over each routing adversary), with deterministic pruning
# counters unchanged shard by shard.
compiled-gate:
	cargo test -q -p cheetah-db --test compiled_contract

# The named CI gate: serving-plane contract — every generated case's
# first, second, warm or pinned sight through the Session answering
# like the baseline on the arm and layout the lifecycle names; concurrent multi-tenant
# requests through the Session front door, each on its caller's thread,
# bit-identical to sequential baselines, typed Error::Overloaded at the
# in-flight bound (counted, not timed), the layout lifecycle of a
# repeated shape (first sight runs the tables whole, second sight routes
# its rows over the cores, later ones run the held layout) never changing
# results, a held layout never routed twice, a right table attached to a
# unary query ignored by the key, the arm (every unpinned sight of every
# family runs direct — over tables past two units' rows, on a layout of
# several units — no switch run and nothing decided, and a pin at the
# held layout's unit count routing every row to the shard the held
# layout did: one routing function; a path or backend pin runs pruned
# on the held layout, for that request alone, a shard pin on a layout of
# its own, routed per request and never held, and the next unpinned
# sight runs direct on the held layout with no re-route; a pin at first
# sight runs what it names), and
# containment: a column the table cannot answer for is a typed BadColumn,
# a query with nothing to evaluate a typed BadArity on the pruned pin, the
# direct pin and unpinned alike, a panicking shard job a typed
# WorkerPanicked — pinned pruned (a one-shard job, caught on the thread
# that served the request: its trace's one worker span says
# thread=caller, and that thread then serves a compiled, pruned request
# with its kernel cache intact), or pinned pruned on an unpinned key's
# held layout, which stays held (its shards claimed by the caller and at
# most cores - 1 pool helpers) — each to its own request with the pool
# intact. Then the lifecycle checker (crates/serve/src/lifecycle.rs):
# every interleaving of racing requests over the session's own sight and
# settle — 2 keys x 3 sights, a one-entry map, an in-flight bound of 2,
# two neighbouring configurations, and one where a refused request
# retries once and a pinned request's steps leave the map and its order
# as they were — exhausted (56 773, 56 073, 77 869 and 110 716 distinct
# states, asserted un-truncated), plus the stale-claim schedules by name.
serving-gate:
	cargo test -q -p cheetah-db --test serving_contract
	cargo test -q -p cheetah-serve lifecycle

# The named CI gate: lossy-fabric contract — the bounded model checker
# exhaustively explores every entry schedule of 2 flows x 3 entries
# through the §7.2 roles (the switch forwarding what the shard program
# kept and ACKing the rest; one drop, one duplication and one lost
# switch-ACK budget: 10 380 to 55 145 schedules per family, bounded at
# 60 000 and asserted un-truncated), and for all seven query variants
# every delivered set lies between the kept rows and all rows and
# completes to the baseline; and fault mode — each shard job carrying
# every row it read across the rack (cheetah_net::rack, TransferSim) in
# simulated time, whatever path ran — answers every generated case at
# 15% drop + 15% corruption as its lossless run does (the same switch
# counters, a switch ACK per pruned row, a resend count its seed
# repeats), with a golden resend count per family in the breakdown.
fabric-gate:
	cargo test -q -p cheetah-db --test fabric_contract

# The named CI gate: telemetry contract — every sight of every generated
# case through the Session yields a complete lifecycle span tree
# (admit/queue/plan/choose/execute{worker per shard, merge}/respond),
# each run's worker spans naming at most min(shards, workers) threads,
# each caller (the thread that executes it) or a pool helper's index, a
# one-shard run's the caller (the run submits at most min(shards,
# workers) - 1 helper jobs), the registry's
# totals reconcile with SessionStats and the returned ExecBreakdowns and
# its names do not grow with the tenants callers send, the layout policy reads off the trees (first sight: no route span, one
# worker; second sight: route + one worker per unit of its rows over the
# cores; third: no route; a pinned shard count routes at every
# sight), so does the arm policy (every unpinned sight runs direct and no
# trace holds a rule span; execute and its worker spans name the path
# that answered), and a traced run in fault mode
# attributes its go-back-N resends (an exact count) to the owning
# registry, equal to the breakdown's count and to its worker spans'.
telemetry-gate:
	cargo test -q -p cheetah-db --test telemetry_contract

# The named CI gate: pruning counters — entries pruned, entries to the
# master and the executing backend, exact on all 20 fixed-seed rows (a
# backend moves none; a lossy rack moves no prune, and delivers at least
# the survivors), and the pass-through identity on one @direct run per
# sharded family.
counters-gate:
	cargo test -q -p cheetah-db --test counters_contract

# The shard sweep README's "Why parallelism pays" table is read from:
# the seven Big Data queries over the benchmark's tables, every layout of
# the 1..=16 shard axis, the program's route (ExecPlan::new, ns per input
# row) and pruned and direct wall clock beside the Figure 8 and ingest
# models (~30 s on 2 cores). A report, not a gate: outputs are asserted,
# clocks are printed.
sweep:
	cargo run --release -p cheetah-bench --bin cheetah-experiments -- shards --full --shards 1,2,4,8,16

# The arm census: every key of the four benchmark workloads (seed 1, the
# benchmark's tables) held routed in a Session, then 11 pairs of batches
# pinned direct and pinned pruned on that layout, each batch's CPU read
# from /proc/self/task/*/schedstat. Three processes, one after another
# (~50 s on 2 cores). A report, not a gate: answers are asserted, clocks
# are printed.
census:
	for i in 1 2 3; do cargo run --release -q -p cheetah-bench --bin cheetah-experiments -- census --full || exit 1; done

# The benchmark, as BENCHMARK.json declares it: the one command, once per
# workload. The last stdout line of each run is its JSON verdict.
ledger:
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload prune_heavy --seed 1 --seconds 20 --trace 0
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload survivor_heavy --seed 1 --seconds 20 --trace 0
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload adhoc_cold --seed 1 --seconds 20 --trace 0
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload tenants_small --seed 1 --seconds 20 --trace 0

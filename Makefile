# Convenience aliases mirroring the CI jobs, so "it failed in CI" is
# always reproducible with one local command.

.PHONY: build test lint no-shims docs ledger-check ledger gates pruning-gate shard-gate planner-gate compiled-gate serving-gate fabric-gate telemetry-gate counters-gate

build:
	cargo build --release

test:
	cargo test -q --workspace

lint: no-shims
	cargo fmt --all --check
	cargo clippy --workspace --all-targets -- -D warnings

# There is one multi-shard entry point (cheetah_runtime::execute over an
# ExecPlan), one run type (ExecRun), one wall-clock harness
# (cheetah-ledger), one §7.2 event loop (cheetah_net::rack), one row
# encoder (PruningOperator::encode_part) under one encode -> prune loop,
# one survivor representation (row selections: no entry type, no
# per-row key encoder beside the operators' walk), no arm selector, and
# one round, one way to fit a layout (no input rounds, mid-run
# supervisor, planner-in-the-constructor layout or calibration probe),
# and one map in the session: an entry per key, the fitted plan on the
# layout it governs (no second cache, shape string or stamp to keep them
# coherent, and no option that had one value everywhere).
# Fail if a deleted twin, shim, run type, harness flag, baseline file,
# do-nothing vendored stub, multi-pass kernel, bandit, entry type,
# supervisor, gate, cache or option is named anywhere again.
no-shims:
	@! grep -rnE "run_cheetah_(sharded|routed|planned|pooled|pooled_routed|presplit|streamed|streamed_resident)|plan_stream|PooledExecution|StreamedExecution|finish_sharded|ShardedRun|StreamedRun|from_units|smoke-(json|baseline|seed|[a-z]+-tolerance|compiled-speedup)|crossover-(json|baseline|tolerance)|(SMOKE|CROSSOVER)_[A-Z_]*(OUT|BASELINE|TOLERANCE|SPEEDUP)|SmokeReport|SmokeFamily|CrossoverReport|bench_baseline|crossover_baseline|BENCH_(smoke|crossover)|criterion(::|_group|_main| *=)|vendor/(criterion|serde)|use serde|serde *=|derive\([^)]*(Serialize|Deserialize)|TransferConfig|FabricConfig|stream_lossy|fn encode\(&self, src|serialize_streams|run_fused_single|max_worker_entries_of|JoinKernel|HavingKernel|KernelFilter|pick_arm|PathChooser::(new|with_registry)|ArmState|experiments::chooser|Encoded::new|<Encoded>|PacketEntry|stream_part|fn route_key|fn encode_key|RuntimeSupervisor|ReplanEvent|supervisor_sample|imbalance_factor|plan_from_keys|ShardLayout::Planned|StreamSpec::planned|\.calibrate\(|Calibration|replan_events|runtime[-_]gate|runtime_contract|PlanCache|CachedPlan|plan_cache::|fn shape_key|Sight::|stats_tolerance|quantum_rows|trace_capacity|channel_depth" \
		crates src tests examples vendor Cargo.toml README.md .github .gitignore .claude

# The benchmark package is not a workspace member, so nothing above
# builds it: an API rename would otherwise break the benchmark silently.
ledger-check:
	cargo test --offline --manifest-path cheetah-ledger/Cargo.toml

docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# All eight named gates below in one invocation: one link of the db
# crate's dev profile, eight test binaries, each still failing by name.
gates:
	cargo test -q -p cheetah-db --test pruning_contract --test shard_contract --test planner_contract --test compiled_contract --test serving_contract --test fabric_contract --test telemetry_contract --test counters_contract

# The named CI gate: pruning contract — Q(A_Q(D)) = Q(D) for all seven
# variants through the generic executor, both JOIN pass structures,
# degenerate tables, and invariance under repartitioning.
pruning-gate:
	cargo test -q -p cheetah-db --test pruning_contract

# The named CI gate: shard equivalence across all seven query variants x
# shards {1,2,7} x both partitioners x (both transports x both backends,
# and the direct arm once per layout: pass-through accounting, nothing
# pruned), with the merge plane's discipline held at every point and
# streamed execution deterministic end to end.
shard-gate:
	cargo test -q -p cheetah-db --test shard_contract

# The named CI gate: planner contract — planned runs bit-identical to
# baseline across all seven variants x the adversarial workload family
# on both transports, deterministic plans, fitted-range load within 2x
# of hash.
planner-gate:
	cargo test -q -p cheetah-db --test planner_contract

# The named CI gate: compiled contract — the plan-time fused kernels
# (five families have one: filter, DISTINCT, TOP N, GROUP BY, SKYLINE;
# JOIN and HAVING run the interpreter on either backend and must say
# so) bit-identical to the interpreted oracle across all seven variants
# x the adversarial workload family x shards {1,2,7} x both
# partitioners x both transports, with deterministic pruning counters
# unchanged shard by shard.
compiled-gate:
	cargo test -q -p cheetah-db --test compiled_contract

# The named CI gate: serving-plane contract — concurrent multi-tenant
# requests through the Session front door bit-identical to sequential
# baselines, no starvation under a flooding co-tenant, typed
# Error::Overloaded past the in-flight bound, the layout lifecycle of a
# repeated shape (first sight runs the tables whole, second sight plans
# and routes, later ones run the held layout under the plan it carries)
# never changing results, a layout never outliving its plan, a right
# table attached to a unary query ignored by the key and the cost, the arm
# lifecycle (a key whose first sight pruned nothing runs direct from its
# second; a key the switch prunes well stays pooled + compiled; pins
# override the verdict per request), and
# containment: a column the table cannot answer for is a typed BadColumn,
# a query with nothing to evaluate a typed BadArity on the pruned pin, the
# direct pin and unpinned alike, a panicking shard job a typed
# WorkerPanicked, each to its own request with the pool intact.
serving-gate:
	cargo test -q -p cheetah-db --test serving_contract

# The named CI gate: lossy-fabric contract — the bounded model checker
# exhaustively replays every delivery schedule of 2 shards x 3 survivor
# frames (one drop + one duplication budget, 10 380 schedules, bounded
# at 20 000 and asserted un-truncated) into the merge plane for all
# seven query variants, the simulated fabric answers exactly and
# bit-identically per seed at 15% drop + 15% corruption, and the
# stream transport's fault mode — the same carrier (cheetah_net::rack)
# run by the merge plane in simulated time — survives the same profile
# with its go-back-N resends reported in the breakdown.
fabric-gate:
	cargo test -q -p cheetah-db --test fabric_contract

# The named CI gate: telemetry contract — every path x backend through
# the Session yields a complete lifecycle span tree (admit/queue/plan/
# choose/execute{worker per shard, merge}/respond), the registry's
# totals reconcile with SessionStats and the returned ExecBreakdowns,
# the layout policy reads off the trees (first sight: no route span, one
# worker; second sight: route + one worker per planned shard; third:
# neither route nor planner; a pinned shard count routes at first
# sight), so does the arm policy (first sight's respond span carries the
# go-direct rule's inputs and verdict, execute and worker spans the path
# that ran), and a traced faulty-channel run attributes its go-back-N
# resends to the owning registry, equal to the breakdown's count.
telemetry-gate:
	cargo test -q -p cheetah-db --test telemetry_contract

# The named CI gate: pruning counters — entries pruned, entries to the
# master and the executing backend, exact on all 20 fixed-seed rows, and
# the pass-through identity on one @direct run per sharded family.
counters-gate:
	cargo test -q -p cheetah-db --test counters_contract

# The benchmark, as BENCHMARK.json declares it: the one command, once per
# workload. The last stdout line of each run is its JSON verdict.
ledger:
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload prune_heavy --seed 1 --seconds 20 --trace 0
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload survivor_heavy --seed 1 --seconds 20 --trace 0
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload adhoc_cold --seed 1 --seconds 20 --trace 0
	cargo run --release --offline --quiet --manifest-path cheetah-ledger/Cargo.toml -- --workload tenants_small --seed 1 --seconds 20 --trace 0

/// @file
/// Pipeline composition: multi-stage kernel chains tuned jointly against
/// an end-to-end TOQ.
///
/// Paraprox approximates each kernel in isolation, but real workloads are
/// chains of patterns where per-stage error compounds (Loop-of-stencil-
/// reduce; HPAC-Offload's per-region decisions composing across whole
/// applications).  A Pipeline describes a linear chain of ParaCL kernels
/// with buffer wiring — stage N's output buffer feeds stage N+1's input
/// parameter, intermediates owned by the runtime — and a PipelineSession
/// turns the chain into ordinary runtime::Variant closures, one per
/// *joint* configuration (a member choice for every stage), so the
/// existing Tuner machinery (calibration, fallback, breakers, serving
/// modes) applies unchanged with quality judged on the final output only.
///
/// The joint space is the cross product of per-stage variant families, so
/// it is pruned with per-stage cost probes before anything is measured
/// end-to-end: each stage member is priced once on a probe input
/// (feeding every stage its exact upstream output), combinations
/// dominated in both predicted cycles and per-stage aggressiveness are
/// eliminated, and the survivors are capped fastest-predicted-first.
///
///     Pipeline -> PipelineSession -> joint_variants()/family()
///              -> Tuner (end-to-end TOQ).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/paraprox.h"
#include "core/variants.h"
#include "runtime/session.h"
#include "runtime/tuner.h"
#include "store/artifact_store.h"

namespace paraprox::runtime {

/// One kernel of the chain and how it is launched.
struct PipelineStage {
    std::string name;    ///< Stage label, e.g. "blur"; must be unique.
    /// Module holding @p kernel; shared ownership so builders can parse
    /// and return without dangling references.
    std::shared_ptr<const ir::Module> module;
    std::string kernel;
    core::CompileOptions options;
    exec::LaunchConfig config;

    /// Parameter that receives the previous stage's output buffer; must
    /// be empty for stage 0 and non-empty for every later stage.
    /// bind_inputs must NOT bind this parameter.
    std::string input_param;
    /// Name of this stage's output buffer (created by bind_inputs).  The
    /// last stage's output is the pipeline output the TOQ is judged on.
    std::string output_buffer;
    /// Create and bind the stage's own arguments (including its output
    /// buffer) for the input identified by @p seed.  Called once per
    /// runtime::Input, like core::LaunchPlan::bind_inputs.
    std::function<void(std::uint64_t seed, exec::ArgPack& args,
                       std::vector<std::unique_ptr<exec::Buffer>>& storage)>
        bind_inputs;
};

/// A linear chain of stages.  Stage 0 reads external inputs only; stage
/// N > 0 additionally reads stage N-1's output through `input_param`.
struct Pipeline {
    std::string name;
    std::vector<PipelineStage> stages;
};

/// Knobs of the joint-space search.
struct JointSearchOptions {
    /// Joint configurations kept for end-to-end calibration, including
    /// the mandatory all-exact config.
    int max_configs = 16;
    /// Eliminate combinations dominated in predicted cycles and
    /// per-stage aggressiveness by another combination.
    bool prune_dominated = true;
    /// Input seed the per-stage cost probes run on.
    std::uint64_t probe_seed = 0x5eedull;
};

/// One joint configuration: a member choice per stage.
struct JointConfig {
    std::vector<int> members;          ///< Per-stage member index.
    std::vector<std::string> labels;   ///< Per-stage member label.
    double predicted_cycles = 0.0;     ///< Sum of per-stage probe costs.
    int aggressiveness = 0;            ///< Sum of member aggressiveness.

    /// "stage=member | stage=member | ..." — the joint variant label.
    std::string label(const std::vector<std::string>& stage_names) const;
};

/// What the joint search did, for logging and tests.
struct JointSearchInfo {
    std::size_t total_combinations = 0;  ///< Cross-product size.
    std::size_t dominated = 0;           ///< Removed by dominance.
    std::size_t capped = 0;              ///< Removed by max_configs.
    std::size_t kept = 0;                ///< Configs handed to the tuner.
    std::size_t probe_runs = 0;          ///< Per-stage pricing launches.
};

/// Per-stage trap attribution, shared with the joint variant closures so
/// it survives the session (serve::ApproxService snapshots it).
class PipelineStats {
  public:
    explicit PipelineStats(std::vector<std::string> stage_names);

    PipelineStats(const PipelineStats&) = delete;
    PipelineStats& operator=(const PipelineStats&) = delete;

    const std::vector<std::string>& stage_names() const { return names_; }
    std::size_t num_stages() const { return names_.size(); }
    std::uint64_t traps(std::size_t stage) const;
    void record_trap(std::size_t stage);

  private:
    std::vector<std::string> names_;
    std::vector<std::atomic<std::uint64_t>> traps_;
};

/// Process-wide count of per-stage cost-probe launches performed by
/// joint searches.  A warm start must leave it unchanged — that is what
/// "skips the joint search entirely" means, and what the warm-start
/// smoke asserts.
std::uint64_t joint_search_measurements();

namespace detail {
struct PipelineRuntime;
}

/// Compile -> wire -> search -> tune for a whole chain.  One
/// KernelSession per stage (so program caching and memo-table store
/// tiers apply per stage exactly as for single kernels), plus the joint
/// layer: cross-product enumeration, cost-model pruning, and variant
/// closures that execute the chain end-to-end.
class PipelineSession {
  public:
    explicit PipelineSession(Pipeline pipeline);

    PipelineSession(const PipelineSession&) = delete;
    PipelineSession& operator=(const PipelineSession&) = delete;

    const Pipeline& pipeline() const { return pipeline_; }
    const std::string& name() const { return pipeline_.name; }
    std::size_t num_stages() const { return pipeline_.stages.size(); }
    std::vector<std::string> stage_names() const;

    /// The per-stage compilation session (members()[0] is exact).
    const KernelSession& stage_session(std::size_t stage) const;

    /// Shared per-stage trap counters; outlives the session.
    std::shared_ptr<PipelineStats> stats() const { return stats_; }

    /// Execute one joint configuration end-to-end on @p input: each stage
    /// binds its own inputs (from the input's shared build, which holds
    /// every stage's), receives the previous stage's output under its
    /// input_param, and runs its chosen member.  Costs are summed
    /// across stages; the returned output is the final stage's.  A trap
    /// anywhere aborts the chain (attributed to that stage in stats()).
    /// When @p stage_outputs is non-null it receives every stage's
    /// output values — iterative drivers use this to carry state between
    /// pipeline invocations.
    VariantRun run_config(
        const std::vector<int>& members, const Input& input,
        vm::ExecMode mode = vm::ExecMode::Instrumented,
        std::vector<std::vector<float>>* stage_outputs = nullptr) const;

    /// Run the joint search: price every stage member once on one build
    /// of the probe seed's input, enumerate the cross product, prune
    /// (dominance, then the predicted-speed cap), and return the
    /// surviving configurations fastest-predicted-first with the
    /// all-exact config at index 0.
    /// Deterministic for a fixed pipeline and options (modeled cycles
    /// decide; ties break on the joint label).
    std::vector<JointConfig> search(const JointSearchOptions& options = {});

    /// What the last search() decided; zeros before any search.
    const JointSearchInfo& search_info() const { return search_info_; }

    /// The configurations backing the most recent joint_variants() call
    /// or family() build/rebuild, index-aligned with the tuner's variant
    /// list (so tuner.selected_index() names configs()[i].members).
    const std::vector<JointConfig>& configs() const { return configs_; }

    /// Tuner-ready joint variant list: search() wrapped into Variant
    /// closures (instrumented + fast) that run the whole chain.  The
    /// closures share ownership of programs, tables and stats, so they
    /// stay valid after the session is destroyed.
    std::vector<Variant> joint_variants(const JointSearchOptions& options = {});

    /// Rebuild joint configs from per-stage member labels (a persisted
    /// plan).  Returns nullopt when any label no longer names a member —
    /// e.g. the pipeline changed since the plan was stored.
    std::optional<std::vector<JointConfig>>
    configs_for(const std::vector<std::vector<std::string>>& labels) const;

    /// Variant closures for explicit configs (no search, no probes).
    std::vector<Variant>
    variants_from(const std::vector<JointConfig>& configs) const;

    /// Composed fingerprint: per-stage module fingerprints chained with
    /// kernel names, stage names and the buffer wiring, so any change to
    /// any stage or to the chain structure invalidates stored joint
    /// calibrations.
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// Store key for the persisted joint calibration: composed
    /// fingerprint x pipeline name x device x TOQ x metric.
    store::StoreKey calibration_key(Metric metric, double toq_percent) const;

    /// This chain as a registrable family (see runtime::warm_tuner),
    /// keyed by calibration_key(metric, toq_percent).  The cold build
    /// runs the joint search and records the stage names and each
    /// config's member labels; the rebuild maps a stored record's labels
    /// back through configs_for() / variants_from() — zero probe runs —
    /// and rejects a record for other stages.  Either way configs() is
    /// aligned with the resulting variants.  The family refers to this
    /// session, which must outlive its use.
    VariantFamily family(Metric metric, double toq_percent,
                         const JointSearchOptions& options = {});

  private:
    Pipeline pipeline_;
    std::vector<std::unique_ptr<KernelSession>> sessions_;
    std::shared_ptr<detail::PipelineRuntime> runtime_;
    std::shared_ptr<PipelineStats> stats_;
    std::uint64_t fingerprint_ = 0;
    std::vector<JointConfig> configs_;
    JointSearchInfo search_info_;
};

}  // namespace paraprox::runtime

#include "runtime/pipeline.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "runtime/variant_run.h"
#include "support/error.h"

namespace paraprox::runtime {

namespace {

/// Counts every per-stage pricing launch a joint search performs; warm
/// starts must leave this untouched.
std::atomic<std::uint64_t> g_joint_search_measurements{0};

std::vector<float>
buffer_values(const exec::Buffer& buffer)
{
    VariantRun scratch;
    attach_output(scratch, buffer);
    return std::move(scratch.output);
}

}  // namespace

std::uint64_t
joint_search_measurements()
{
    return g_joint_search_measurements.load(std::memory_order_relaxed);
}

std::string
JointConfig::label(const std::vector<std::string>& stage_names) const
{
    PARAPROX_CHECK(stage_names.size() == labels.size(),
                   "stage name / label count mismatch");
    std::string out;
    for (std::size_t s = 0; s < labels.size(); ++s) {
        if (s != 0)
            out += " | ";
        out += stage_names[s] + "=" + labels[s];
    }
    return out;
}

PipelineStats::PipelineStats(std::vector<std::string> stage_names)
    : names_(std::move(stage_names)), traps_(names_.size())
{
}

std::uint64_t
PipelineStats::traps(std::size_t stage) const
{
    PARAPROX_CHECK(stage < traps_.size(), "stage index out of range");
    return traps_[stage].load(std::memory_order_relaxed);
}

void
PipelineStats::record_trap(std::size_t stage)
{
    PARAPROX_CHECK(stage < traps_.size(), "stage index out of range");
    traps_[stage].fetch_add(1, std::memory_order_relaxed);
}

namespace detail {

/// Everything a joint variant closure needs to execute the chain,
/// detached from the session so the closures outlive it (mirrors
/// core::make_variants' shared VariantContext idiom).
struct PipelineRuntime {
    struct Member {
        std::string label;
        int aggressiveness = 0;
        std::shared_ptr<const vm::Program> program;
        std::vector<core::TableBinding> tables;
        std::vector<std::string> written;  ///< What `program` writes.
    };
    struct Stage {
        std::string name;
        exec::LaunchConfig config;
        std::string input_param;
        std::string output_buffer;
        device::DeviceModel device;
        std::vector<Member> members;
    };

    std::vector<Stage> stages;
    std::shared_ptr<PipelineStats> stats;
    /// Every stage's bind_inputs, the family Input builds are keyed by.
    std::shared_ptr<const InputFamily> inputs;

    VariantRun run(const std::vector<int>& members, const Input& input,
                   vm::ExecMode mode,
                   std::vector<std::vector<float>>* stage_outputs) const
    {
        PARAPROX_CHECK(members.size() == stages.size(),
                       "joint config has wrong stage count");
        if (stage_outputs) {
            stage_outputs->clear();
            stage_outputs->resize(stages.size());
        }

        VariantRun total;
        const auto build = input.build(inputs);
        const WallTimer wall;
        std::vector<std::unique_ptr<exec::Buffer>> storage;
        exec::Buffer* upstream = nullptr;
        for (std::size_t s = 0; s < stages.size(); ++s) {
            const Stage& stage = stages[s];
            PARAPROX_CHECK(members[s] >= 0 &&
                               static_cast<std::size_t>(members[s]) <
                                   stage.members.size(),
                           "member index out of range for stage `" +
                               stage.name + "`");
            const Member& member = stage.members[
                static_cast<std::size_t>(members[s])];

            exec::ArgPack args =
                launch_args((*build)[s], member.written, storage);
            if (!stage.input_param.empty()) {
                PARAPROX_CHECK(upstream, "stage `" + stage.name +
                                             "` has no upstream output");
                args.buffer(stage.input_param, *upstream);
            }
            core::bind_tables(member.tables, args, storage);

            const VariantRun run =
                mode == vm::ExecMode::Fast
                    ? run_fast_unpriced(*member.program, args, stage.config)
                    : run_priced(*member.program, args, stage.config,
                                 stage.device);
            total.modeled_cycles += run.modeled_cycles;
            total.instructions += run.instructions;
            if (run.trapped) {
                // Abort the chain: downstream stages would consume
                // garbage.  The tuner's trap fallback re-serves exact.
                if (stats)
                    stats->record_trap(s);
                total.trapped = true;
                total.wall_seconds = wall.seconds();
                return total;
            }

            exec::Buffer* output = args.find_buffer(stage.output_buffer);
            PARAPROX_CHECK(output, "stage `" + stage.name +
                                       "` output buffer `" +
                                       stage.output_buffer +
                                       "` was not bound");
            if (stage_outputs)
                (*stage_outputs)[s] = buffer_values(*output);
            upstream = output;
        }
        attach_output(total, *upstream);
        total.wall_seconds = wall.seconds();
        return total;
    }
};

}  // namespace detail

PipelineSession::PipelineSession(Pipeline pipeline)
    : pipeline_(std::move(pipeline))
{
    PARAPROX_CHECK(!pipeline_.stages.empty(), "pipeline has no stages");

    std::vector<std::string> names;
    runtime_ = std::make_shared<detail::PipelineRuntime>();
    fingerprint_ = store::fnv1a64("paraprox-pipeline", 17);
    for (std::size_t s = 0; s < pipeline_.stages.size(); ++s) {
        const PipelineStage& stage = pipeline_.stages[s];
        PARAPROX_CHECK(stage.module != nullptr,
                       "pipeline stage `" + stage.name + "` has no module");
        PARAPROX_CHECK(stage.bind_inputs != nullptr,
                       "pipeline stage `" + stage.name +
                           "` needs a bind_inputs callback");
        PARAPROX_CHECK(s == 0 ? stage.input_param.empty()
                              : !stage.input_param.empty(),
                       "stage 0 must not declare input_param; later "
                       "stages must (stage `" + stage.name + "`)");
        PARAPROX_CHECK(!stage.output_buffer.empty(),
                       "pipeline stage `" + stage.name +
                           "` needs an output buffer name");
        names.push_back(stage.name);
        sessions_.push_back(std::make_unique<KernelSession>(
            *stage.module, stage.kernel, stage.options));

        // Chain the composed fingerprint over everything that defines
        // the stage's identity and wiring.
        const std::uint64_t stage_fp = sessions_.back()->fingerprint();
        fingerprint_ = store::fnv1a64(&stage_fp, sizeof stage_fp,
                                      fingerprint_);
        const std::string wiring = stage.name + "/" + stage.kernel + "/" +
                                   stage.input_param + ">" +
                                   stage.output_buffer;
        fingerprint_ = store::fnv1a64(wiring.data(), wiring.size(),
                                      fingerprint_);
    }
    stats_ = std::make_shared<PipelineStats>(names);
    runtime_->stats = stats_;
    auto inputs = std::make_shared<InputFamily>();

    for (std::size_t s = 0; s < pipeline_.stages.size(); ++s) {
        const PipelineStage& stage = pipeline_.stages[s];
        detail::PipelineRuntime::Stage exec_stage;
        exec_stage.name = stage.name;
        exec_stage.config = stage.config;
        exec_stage.input_param = stage.input_param;
        exec_stage.output_buffer = stage.output_buffer;
        exec_stage.device = stage.options.device;
        for (const SessionMember& member : sessions_[s]->members()) {
            exec_stage.members.push_back(
                {member.label, member.aggressiveness, member.program,
                 member.tables, written_buffers(*member.program)});
        }
        inputs->push_back(stage.bind_inputs);
        runtime_->stages.push_back(std::move(exec_stage));
    }
    runtime_->inputs = std::move(inputs);
}

std::vector<std::string>
PipelineSession::stage_names() const
{
    return stats_->stage_names();
}

const KernelSession&
PipelineSession::stage_session(std::size_t stage) const
{
    PARAPROX_CHECK(stage < sessions_.size(), "stage index out of range");
    return *sessions_[stage];
}

VariantRun
PipelineSession::run_config(
    const std::vector<int>& members, const Input& input, vm::ExecMode mode,
    std::vector<std::vector<float>>* stage_outputs) const
{
    return runtime_->run(members, input, mode, stage_outputs);
}

std::vector<JointConfig>
PipelineSession::search(const JointSearchOptions& options)
{
    search_info_ = {};
    const std::size_t num = runtime_->stages.size();

    // Price every stage member once on the probe input.  Every stage
    // member — including each stage's exact kernel — sees its *exact*
    // upstream output, so per-stage costs compose additively into a
    // prediction for any combination.
    std::vector<std::vector<double>> cost(num);
    {
        // One build of the probe input serves every member: each launch
        // copies only what its program writes.
        const auto build =
            Input(options.probe_seed).build(runtime_->inputs);
        std::vector<std::unique_ptr<exec::Buffer>> storage;
        exec::Buffer* upstream = nullptr;
        for (std::size_t s = 0; s < num; ++s) {
            const detail::PipelineRuntime::Stage& stage =
                runtime_->stages[s];
            cost[s].resize(stage.members.size(), 0.0);
            exec::Buffer* exact_output = nullptr;
            for (std::size_t m = 0; m < stage.members.size(); ++m) {
                const auto& member = stage.members[m];
                exec::ArgPack args =
                    launch_args((*build)[s], member.written, storage);
                if (!stage.input_param.empty())
                    args.buffer(stage.input_param, *upstream);
                core::bind_tables(member.tables, args, storage);
                const VariantRun run = run_priced(*member.program, args,
                                                  stage.config,
                                                  stage.device);
                g_joint_search_measurements.fetch_add(
                    1, std::memory_order_relaxed);
                ++search_info_.probe_runs;
                // A trapped probe prices the member as unusably slow, so
                // no surviving combination contains it below exact.
                cost[s][m] = run.trapped
                                 ? std::numeric_limits<double>::infinity()
                                 : run.modeled_cycles;
                if (m == 0) {
                    exact_output = args.find_buffer(stage.output_buffer);
                    PARAPROX_CHECK(exact_output && !run.trapped,
                                   "exact probe of stage `" + stage.name +
                                       "` failed");
                }
            }
            upstream = exact_output;
        }
    }

    // Enumerate the cross product (odometer order: stage 0 slowest).
    std::vector<JointConfig> combos;
    std::vector<int> odo(num, 0);
    for (;;) {
        JointConfig config;
        config.members = odo;
        for (std::size_t s = 0; s < num; ++s) {
            const auto& member =
                runtime_->stages[s].members[static_cast<std::size_t>(odo[s])];
            config.labels.push_back(member.label);
            config.predicted_cycles += cost[s][
                static_cast<std::size_t>(odo[s])];
            config.aggressiveness += member.aggressiveness;
        }
        combos.push_back(std::move(config));
        bool rolled_over = true;
        for (std::size_t digit = num; digit-- > 0;) {
            if (++odo[digit] <
                static_cast<int>(runtime_->stages[digit].members.size())) {
                rolled_over = false;
                break;
            }
            odo[digit] = 0;
        }
        if (rolled_over)
            break;
    }
    search_info_.total_combinations = combos.size();

    const std::vector<std::string> names = stats_->stage_names();
    // Deterministic order: predicted speed, ties on the joint label.
    std::sort(combos.begin(), combos.end(),
              [&](const JointConfig& a, const JointConfig& b) {
                  if (a.predicted_cycles != b.predicted_cycles)
                      return a.predicted_cycles < b.predicted_cycles;
                  return a.label(names) < b.label(names);
              });

    // Dominance pruning: a combination is dropped when another one is
    // predicted no slower AND no more aggressive in every stage (strictly
    // better somewhere).  Walking fastest-first means any dominator of a
    // combo precedes it, so checking against the kept set suffices.  The
    // all-exact combo (aggressiveness 0 everywhere) can never be
    // dominated and always survives.
    std::vector<JointConfig> kept;
    const auto all_exact = [](const JointConfig& c) {
        return std::all_of(c.members.begin(), c.members.end(),
                           [](int m) { return m == 0; });
    };
    for (JointConfig& combo : combos) {
        bool dominated = false;
        if (options.prune_dominated) {
            for (const JointConfig& keeper : kept) {
                if (keeper.predicted_cycles > combo.predicted_cycles)
                    continue;
                bool all_leq = true;
                bool strictly = keeper.predicted_cycles <
                                combo.predicted_cycles;
                for (std::size_t s = 0; s < num; ++s) {
                    const int ka = runtime_->stages[s]
                                       .members[static_cast<std::size_t>(
                                           keeper.members[s])]
                                       .aggressiveness;
                    const int ca = runtime_->stages[s]
                                       .members[static_cast<std::size_t>(
                                           combo.members[s])]
                                       .aggressiveness;
                    if (ka > ca) {
                        all_leq = false;
                        break;
                    }
                    if (ka < ca)
                        strictly = true;
                }
                if (all_leq && strictly) {
                    dominated = true;
                    break;
                }
            }
        }
        if (dominated)
            ++search_info_.dominated;
        else
            kept.push_back(std::move(combo));
    }

    // Cap the measured set fastest-predicted-first, never dropping the
    // all-exact config, and put it at index 0 (the tuner requires
    // variants[0] to be the exact kernel).
    std::vector<JointConfig> result;
    JointConfig exact;
    std::vector<JointConfig> rest;
    for (JointConfig& combo : kept) {
        if (all_exact(combo))
            exact = std::move(combo);
        else
            rest.push_back(std::move(combo));
    }
    PARAPROX_CHECK(!exact.members.empty(),
                   "joint search lost the all-exact config");
    const std::size_t cap =
        options.max_configs > 0
            ? static_cast<std::size_t>(options.max_configs)
            : std::size_t{1};
    if (rest.size() + 1 > cap) {
        search_info_.capped = rest.size() + 1 - cap;
        rest.resize(cap - 1);
    }
    result.push_back(std::move(exact));
    for (JointConfig& combo : rest)
        result.push_back(std::move(combo));
    search_info_.kept = result.size();
    return result;
}

std::vector<Variant>
PipelineSession::joint_variants(const JointSearchOptions& options)
{
    configs_ = search(options);
    return variants_from(configs_);
}

std::optional<std::vector<JointConfig>>
PipelineSession::configs_for(
    const std::vector<std::vector<std::string>>& labels) const
{
    std::vector<JointConfig> configs;
    for (const auto& per_stage : labels) {
        if (per_stage.size() != runtime_->stages.size())
            return std::nullopt;
        JointConfig config;
        for (std::size_t s = 0; s < per_stage.size(); ++s) {
            const auto& members = runtime_->stages[s].members;
            const auto it = std::find_if(
                members.begin(), members.end(),
                [&](const detail::PipelineRuntime::Member& m) {
                    return m.label == per_stage[s];
                });
            if (it == members.end())
                return std::nullopt;
            config.members.push_back(
                static_cast<int>(it - members.begin()));
            config.labels.push_back(it->label);
            config.aggressiveness += it->aggressiveness;
        }
        configs.push_back(std::move(config));
    }
    return configs;
}

std::vector<Variant>
PipelineSession::variants_from(const std::vector<JointConfig>& configs) const
{
    const std::vector<std::string> names = stats_->stage_names();
    std::vector<Variant> variants;
    variants.reserve(configs.size());
    for (const JointConfig& config : configs) {
        Variant variant;
        variant.label = config.label(names);
        variant.aggressiveness = config.aggressiveness;
        const auto runtime = runtime_;
        const std::vector<int> members = config.members;
        variant.run = [runtime, members](const Input& input) {
            return runtime->run(members, input, vm::ExecMode::Instrumented,
                                nullptr);
        };
        variant.run_fast = [runtime, members](const Input& input) {
            return runtime->run(members, input, vm::ExecMode::Fast,
                                nullptr);
        };
        variants.push_back(std::move(variant));
    }
    return variants;
}

store::StoreKey
PipelineSession::calibration_key(Metric metric, double toq_percent) const
{
    store::StoreKey key;
    key.module_fingerprint = fingerprint_;
    key.kernel = pipeline_.name;
    key.device = pipeline_.stages.front().options.device.name;
    key.toq = toq_percent;
    key.metric = to_string(metric);
    std::string chain;
    for (const PipelineStage& stage : pipeline_.stages)
        chain += (chain.empty() ? "" : ">") + stage.name;
    key.detail = "pipeline:" + chain;
    return key;
}

VariantFamily
PipelineSession::family(Metric metric, double toq_percent,
                        const JointSearchOptions& options)
{
    VariantFamily family;
    family.kind = VariantFamily::Kind::Pipeline;
    family.key = calibration_key(metric, toq_percent);
    family.stages = stats_;
    family.build = [this, options](store::CalibrationRecord& record) {
        std::vector<Variant> variants = joint_variants(options);
        record.stage_names = stage_names();
        for (const JointConfig& config : configs_)
            record.configs.push_back(config.labels);
        return variants;
    };
    family.rebuild = [this](const store::CalibrationRecord& record) {
        auto configs = record.stage_names == stage_names()
                           ? configs_for(record.configs)
                           : std::nullopt;
        if (!configs)
            return std::vector<Variant>{};
        configs_ = std::move(*configs);
        search_info_ = {};
        return variants_from(configs_);
    };
    return family;
}

}  // namespace paraprox::runtime

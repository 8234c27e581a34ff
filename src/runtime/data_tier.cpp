#include "runtime/data_tier.h"

#include <map>
#include <memory>
#include <utility>

#include "data/packed_buffer.h"
#include "runtime/variant_run.h"
#include "support/error.h"

namespace paraprox::runtime {

namespace {

/// Profiling listener: per-slot dynamic access counts, nothing else.
class SlotCountListener : public vm::MemoryListener {
  public:
    explicit SlotCountListener(std::size_t num_slots) : counts_(num_slots, 0)
    {
    }

    void
    on_access(int, int buffer_slot, ir::AddrSpace, std::int64_t, bool,
              std::int64_t, int) override
    {
        if (buffer_slot >= 0 &&
            static_cast<std::size_t>(buffer_slot) < counts_.size())
            ++counts_[static_cast<std::size_t>(buffer_slot)];
    }

    const std::vector<std::uint64_t>& counts() const { return counts_; }

  private:
    std::vector<std::uint64_t> counts_;
};

class SlotCountObserver : public exec::LaunchObserver {
  public:
    explicit SlotCountObserver(std::size_t num_slots)
        : counts_(num_slots, 0)
    {
    }

    std::unique_ptr<vm::MemoryListener>
    make_group_listener(std::int64_t) override
    {
        return std::make_unique<SlotCountListener>(counts_.size());
    }

    void
    on_group_complete(vm::MemoryListener& listener) override
    {
        const auto& group = static_cast<SlotCountListener&>(listener);
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += group.counts()[i];
    }

    const std::vector<std::uint64_t>& counts() const { return counts_; }

  private:
    std::vector<std::uint64_t> counts_;
};

/// Immutable state shared by every data-tier variant closure; kept alive
/// by shared_ptr capture so the variants outlive the session.
struct TierContext {
    std::shared_ptr<const vm::Program> program;
    /// What `program`, which every plan launches, writes.
    std::vector<std::string> written;
    std::vector<core::TableBinding> tables;
    core::LaunchPlan plan;
    device::DeviceModel device;
    /// The plan's bind_inputs as the family Input builds are keyed by.
    std::shared_ptr<const InputFamily> inputs;
};

VariantRun
run_plan(const TierContext& context, const data::PrecisionPlan& plan,
         const Input& input, vm::ExecMode mode)
{
    const auto build = input.build(context.inputs);
    const WallTimer wall;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    exec::ArgPack args =
        launch_args(build->front(), context.written, storage);
    core::bind_tables(context.tables, args, storage);

    // Repack the plan's buffers over the application's exact bindings.
    // The packed binding shadows the exact one at launch; the exact
    // buffer keeps the authoritative input values for this input.
    std::vector<std::unique_ptr<data::PackedBuffer>> packed_storage;
    data::PackedBuffer* packed_output = nullptr;
    for (const auto& assignment : plan.assignments) {
        exec::Buffer* buffer = args.find_buffer(assignment.buffer);
        PARAPROX_CHECK(buffer, "precision plan names unbound buffer `" +
                                   assignment.buffer + "`");
        auto packed = std::make_unique<data::PackedBuffer>(
            assignment.codec,
            static_cast<std::int64_t>(buffer->size()), assignment.quant);
        packed->repack(buffer->to_floats(),
                       context.program->kernel_name + "/" +
                           assignment.buffer);
        args.packed(assignment.buffer, *packed);
        if (assignment.buffer == context.plan.output_buffer)
            packed_output = packed.get();
        packed_storage.push_back(std::move(packed));
    }

    VariantRun run =
        mode == vm::ExecMode::Fast
            ? run_fast_unpriced(*context.program, args, context.plan.config)
            : run_priced(*context.program, args, context.plan.config,
                         context.device);
    if (packed_output) {
        // The quality metric scores what a consumer would read back:
        // the decoded packed output.
        run.output = packed_output->unpack();
    } else {
        const exec::Buffer* output =
            args.find_buffer(context.plan.output_buffer);
        PARAPROX_CHECK(output, "LaunchPlan output buffer `" +
                                   context.plan.output_buffer +
                                   "` was not bound");
        attach_output(run, *output);
    }
    run.wall_seconds = wall.seconds();
    return run;
}

/// Wrap @p plans (leading all-exact included) as tuner variants.
std::vector<Variant>
make_tier_variants(std::shared_ptr<TierContext> context,
                   const std::vector<data::PrecisionPlan>& plans)
{
    std::vector<Variant> variants;
    variants.reserve(plans.size());
    for (const auto& plan : plans) {
        Variant variant;
        variant.label = plan.all_exact() ? "exact" : plan.label;
        variant.aggressiveness = plan.aggressiveness();
        variant.run = [context, plan](const Input& input) {
            return run_plan(*context, plan, input,
                            vm::ExecMode::Instrumented);
        };
        variant.run_fast = [context, plan](const Input& input) {
            return run_plan(*context, plan, input, vm::ExecMode::Fast);
        };
        variants.push_back(std::move(variant));
    }
    return variants;
}

std::shared_ptr<TierContext>
make_context(const KernelSession& session, const core::LaunchPlan& plan)
{
    auto context = std::make_shared<TierContext>();
    const SessionMember& exact = session.members().front();
    context->program = exact.program;
    context->written = written_buffers(*exact.program);
    context->tables = exact.tables;
    context->plan = plan;
    context->device = session.options().device;
    context->inputs =
        std::make_shared<const InputFamily>(InputFamily{plan.bind_inputs});
    return context;
}

data::StorageSafety
analyze_session(const KernelSession& session)
{
    // Pin every buffer any member binds a memo table into: table storage
    // is already quantized once.
    std::vector<std::string> table_names;
    for (const auto& member : session.members()) {
        for (const auto& binding : member.tables)
            table_names.push_back(binding.buffer_param);
    }
    return data::analyze_storage_safety(
        *session.members().front().program, table_names);
}

data::PrecisionPlan
exact_plan()
{
    data::PrecisionPlan plan;
    plan.label = "exact";
    return plan;
}

}  // namespace

DataTier
build_data_tier(const KernelSession& session, const core::LaunchPlan& plan,
                const DataTierOptions& options)
{
    DataTier tier;
    tier.safety = analyze_session(session);
    auto context = make_context(session, plan);

    // One instrumented exact run: per-slot traffic counts for plan
    // pruning, and post-run buffer values for int8 range fitting (inputs
    // keep their bound values; outputs hold the exact results).
    exec::ArgPack args;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    context->plan.bind_inputs(options.profile_seed, args, storage);
    core::bind_tables(context->tables, args, storage);
    SlotCountObserver observer(context->program->buffers.size());
    exec::LaunchConfig config = context->plan.config;
    config.mode = vm::ExecMode::Instrumented;
    exec::launch(*context->program, args, config, &observer);

    std::map<std::string, data::QuantParams> fitted;
    for (const int slot : tier.safety.packable_slots()) {
        const std::string& name =
            context->program->buffers[static_cast<std::size_t>(slot)].name;
        if (exec::Buffer* buffer = args.find_buffer(name))
            fitted[name] = data::PackedBuffer::fit_quant(buffer->to_floats());
    }

    tier.plans.push_back(exact_plan());
    auto enumerated = transforms::enumerate_precision_plans(
        *context->program, tier.safety, observer.counts(), options.tx);
    for (auto& enumerated_plan : enumerated) {
        for (auto& assignment : enumerated_plan.assignments) {
            if (assignment.codec == data::Codec::Int8) {
                const auto it = fitted.find(assignment.buffer);
                if (it != fitted.end())
                    assignment.quant = it->second;
            }
        }
        tier.plans.push_back(std::move(enumerated_plan));
    }

    tier.variants = make_tier_variants(std::move(context), tier.plans);
    return tier;
}

DataTier
rebuild_data_tier(const KernelSession& session, const core::LaunchPlan& plan,
                  const std::vector<data::PrecisionPlan>& plans)
{
    DataTier tier;
    tier.safety = analyze_session(session);
    const vm::Program& program = *session.members().front().program;

    // Stored plans must still satisfy the live safety analysis: a stale
    // or tampered record never overrides the static proof.
    for (const auto& stored : plans) {
        for (const auto& assignment : stored.assignments) {
            bool packable = false;
            for (std::size_t slot = 0; slot < program.buffers.size();
                 ++slot) {
                if (program.buffers[slot].name == assignment.buffer) {
                    packable = tier.safety.packable(static_cast<int>(slot));
                    break;
                }
            }
            if (!packable)
                return tier;  // empty variants = rejected
        }
    }

    tier.plans = plans;
    tier.variants =
        make_tier_variants(make_context(session, plan), tier.plans);
    return tier;
}

store::StoreKey
data_calibration_key(const KernelSession& session, Metric metric,
                     double toq_percent)
{
    store::StoreKey key = session.calibration_key(metric, toq_percent);
    key.detail = "data-tier";
    return key;
}

VariantFamily
data_tier_family(const KernelSession& session, const core::LaunchPlan& plan,
                 Metric metric, double toq_percent,
                 const DataTierOptions& options)
{
    VariantFamily family;
    family.kind = VariantFamily::Kind::DataTier;
    family.key = data_calibration_key(session, metric, toq_percent);
    family.build = [&session, plan,
                    options](store::CalibrationRecord& record) {
        DataTier tier = build_data_tier(session, plan, options);
        record.plans = std::move(tier.plans);
        return std::move(tier.variants);
    };
    family.rebuild = [&session,
                      plan](const store::CalibrationRecord& record) {
        return rebuild_data_tier(session, plan, record.plans).variants;
    };
    return family;
}

}  // namespace paraprox::runtime

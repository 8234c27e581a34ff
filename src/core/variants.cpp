#include "core/variants.h"

#include "device/memory_model.h"
#include "runtime/variant_run.h"
#include "support/error.h"
#include "vm/program_cache.h"

namespace paraprox::core {

void
bind_tables(const std::vector<TableBinding>& tables, exec::ArgPack& args,
            std::vector<std::unique_ptr<exec::Buffer>>& storage)
{
    for (const auto& binding : tables) {
        storage.push_back(std::make_unique<exec::Buffer>(
            exec::Buffer::from_floats(binding.table.values)));
        args.buffer(binding.buffer_param, *storage.back());
        if (!binding.shared_param.empty()) {
            args.shared(binding.shared_param,
                        static_cast<std::int64_t>(
                            binding.table.values.size()));
        }
    }
}

namespace {

/// Shared immutable state captured by every variant closure.
struct VariantContext {
    device::DeviceModel device;
    LaunchPlan plan;
    /// The plan's bind_inputs as the family every variant's Input build
    /// is keyed by.
    std::shared_ptr<const runtime::InputFamily> inputs;
};

/// One variant's program with what its launches need: the buffers it
/// writes (copied per launch; the rest bind from the shared build) and
/// its lookup tables.
struct Member {
    std::shared_ptr<const vm::Program> program;
    std::vector<std::string> written;
    std::vector<TableBinding> tables;
};

runtime::VariantRun
run_one(const Member& member, const VariantContext& context,
        const runtime::Input& input, vm::ExecMode mode)
{
    const auto build = input.build(context.inputs);
    const runtime::WallTimer wall;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    exec::ArgPack args =
        runtime::launch_args(build->front(), member.written, storage);
    bind_tables(member.tables, args, storage);

    runtime::VariantRun run =
        mode == vm::ExecMode::Fast
            ? runtime::run_fast_unpriced(*member.program, args,
                                         context.plan.config)
            : runtime::run_priced(*member.program, args,
                                  context.plan.config, context.device);
    const exec::Buffer* output =
        args.find_buffer(context.plan.output_buffer);
    PARAPROX_CHECK(output, "LaunchPlan output buffer `" +
                               context.plan.output_buffer +
                               "` was not bound");
    runtime::attach_output(run, *output);
    run.wall_seconds = wall.seconds();
    return run;
}

std::vector<runtime::VariantRun>
run_many(const Member& member, const VariantContext& context,
         const std::vector<std::uint64_t>& seeds)
{
    // The per-request fixed costs a batch amortizes: the lookup tables
    // are copied into Buffers once (bind_tables per request is the
    // dominant bind cost for memoized kernels), and one concatenated
    // launch replaces seeds.size() pool dispatches.  Only the per-seed
    // inputs are bound per member, on a copy of the shared base pack.
    exec::ArgPack base;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    bind_tables(member.tables, base, storage);

    std::vector<exec::ArgPack> packs;
    packs.reserve(seeds.size());
    std::vector<const exec::ArgPack*> members;
    members.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) {
        packs.push_back(base);
        context.plan.bind_inputs(seed, packs.back(), storage);
        members.push_back(&packs.back());
    }

    std::vector<runtime::VariantRun> runs =
        runtime::run_batch_unpriced(*member.program, members,
                                    context.plan.config);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const exec::Buffer* output =
            packs[i].find_buffer(context.plan.output_buffer);
        PARAPROX_CHECK(output, "LaunchPlan output buffer `" +
                                   context.plan.output_buffer +
                                   "` was not bound");
        runtime::attach_output(runs[i], *output);
    }
    return runs;
}

}  // namespace

std::vector<runtime::Variant>
make_variants(const ir::Module& module, const std::string& kernel,
              const std::vector<GeneratedKernel>& generated,
              const LaunchPlan& plan, const device::DeviceModel& device)
{
    PARAPROX_CHECK(plan.bind_inputs != nullptr,
                   "LaunchPlan needs a bind_inputs callback");
    auto context = std::make_shared<VariantContext>();
    context->device = device;
    context->plan = plan;
    context->inputs = std::make_shared<const runtime::InputFamily>(
        runtime::InputFamily{plan.bind_inputs});

    // All programs come from the process-wide cache, so rebuilding the
    // variant list (or a KernelSession over the same module) compiles
    // nothing twice.
    // Every variant carries two closures over the same program and
    // bindings: `run` prices the launch under the device model (what
    // calibration needs) and `run_fast` serves in vm::ExecMode::Fast.
    auto make_variant = [&context](std::string label, int aggressiveness,
                                   std::shared_ptr<const vm::Program> program,
                                   std::vector<TableBinding> tables) {
        auto member = std::make_shared<const Member>(
            Member{program, runtime::written_buffers(*program),
                   std::move(tables)});
        runtime::Variant variant;
        variant.label = std::move(label);
        variant.aggressiveness = aggressiveness;
        variant.run = [member, context](const runtime::Input& input) {
            return run_one(*member, *context, input,
                           vm::ExecMode::Instrumented);
        };
        variant.run_fast = [member, context](const runtime::Input& input) {
            return run_one(*member, *context, input, vm::ExecMode::Fast);
        };
        variant.run_batch =
            [member, context](const std::vector<std::uint64_t>& seeds) {
                return run_many(*member, *context, seeds);
            };
        return variant;
    };

    auto& cache = vm::ProgramCache::global();
    std::vector<runtime::Variant> variants;
    variants.push_back(
        make_variant("exact", 0, cache.get_or_compile(module, kernel), {}));

    for (const auto& kernel_variant : generated) {
        variants.push_back(make_variant(
            kernel_variant.label, kernel_variant.aggressiveness,
            cache.get_or_compile(kernel_variant.module,
                                 kernel_variant.kernel_name),
            kernel_variant.tables));
    }
    return variants;
}

std::vector<runtime::Variant>
make_variants(const ir::Module& module, const std::string& kernel,
              const CompileOptions& options, const LaunchPlan& plan)
{
    auto compiled = compile_kernel(module, kernel, options);
    return make_variants(module, kernel, compiled.generated, plan,
                         options.device);
}

}  // namespace paraprox::core

#include "runtime/session.h"

#include "ir/printer.h"
#include "vm/program_cache.h"

namespace paraprox::runtime {

KernelSession::KernelSession(const ir::Module& module, std::string kernel,
                             core::CompileOptions options)
    : module_(&module), kernel_(std::move(kernel)),
      options_(std::move(options))
{
    fingerprint_ = ir::fingerprint(*module_);

    // Give the compiler a memo-table tier when the global artifact store
    // is configured and the caller did not wire their own: a stored table
    // replaces the table-size search and the shrink-size re-tuning.  The
    // table contents are device-independent, but the device id stays in
    // the key (it already gates which candidates are profitable) so every
    // component of a kernel's artifact set invalidates together.
    if (auto store = store::ArtifactStore::global();
        store && !options_.table_lookup) {
        auto key_for = [fingerprint = fingerprint_, kernel = kernel_,
                        device = options_.device.name, toq = options_.toq,
                        max_bits = options_.max_table_bits](
                           const std::string& callee, int shrink) {
            store::StoreKey key;
            key.module_fingerprint = fingerprint;
            key.kernel = kernel;
            key.device = device;
            key.toq = toq;
            key.detail = "memo:" + callee + "#" +
                         std::to_string(shrink) +
                         ":maxbits=" + std::to_string(max_bits);
            return key;
        };
        options_.table_lookup = [store, key_for](
                                    const std::string& callee,
                                    int shrink) {
            return store->load_table(key_for(callee, shrink));
        };
        options_.table_publish = [store, key_for](
                                     const std::string& callee, int shrink,
                                     const memo::LookupTable& table) {
            store->save_table(key_for(callee, shrink), table);
        };
    }

    result_ = core::compile_kernel(*module_, kernel_, options_);

    auto& cache = vm::ProgramCache::global();
    members_.reserve(result_.generated.size() + 1);
    members_.push_back({"exact", 0, kernel_,
                        cache.get_or_compile(*module_, kernel_), {}});
    for (const auto& generated : result_.generated) {
        members_.push_back({generated.label, generated.aggressiveness,
                            generated.kernel_name,
                            cache.get_or_compile(generated.module,
                                                 generated.kernel_name),
                            generated.tables});
    }
}

const SessionMember*
KernelSession::find_member(const std::string& label) const
{
    for (const auto& member : members_) {
        if (member.label == label)
            return &member;
    }
    return nullptr;
}

std::shared_ptr<const vm::Program>
KernelSession::program(const std::string& kernel_name) const
{
    return vm::ProgramCache::global().get_or_compile(*module_, kernel_name);
}

std::vector<Variant>
KernelSession::variants(const core::LaunchPlan& plan) const
{
    // The bridge fetches every program from the shared cache, where this
    // session already compiled them, so this is binding-only work.  The
    // closures own copies of everything they touch and outlive the
    // session.
    return core::make_variants(*module_, kernel_, result_.generated, plan,
                               options_.device);
}

Tuner
KernelSession::tuner(const core::LaunchPlan& plan, Metric metric,
                     double toq_percent, int check_interval) const
{
    const double toq = toq_percent < 0.0 ? options_.toq : toq_percent;
    return Tuner(variants(plan), metric, toq, check_interval);
}

store::StoreKey
KernelSession::calibration_key(Metric metric, double toq_percent) const
{
    store::StoreKey key;
    key.module_fingerprint = fingerprint_;
    key.kernel = kernel_;
    key.device = options_.device.name;
    key.toq = toq_percent < 0.0 ? options_.toq : toq_percent;
    key.metric = to_string(metric);
    key.detail = "calibration";
    return key;
}

VariantFamily
kernel_family(std::vector<Variant> variants,
              std::optional<store::StoreKey> key)
{
    auto shared =
        std::make_shared<const std::vector<Variant>>(std::move(variants));
    VariantFamily family;
    family.key = std::move(key);
    family.build = [shared](store::CalibrationRecord&) { return *shared; };
    family.rebuild = [shared](const store::CalibrationRecord& record) {
        // A sectioned record was written for another family kind.
        return record.configs.empty() && record.plans.empty()
                   ? *shared
                   : std::vector<Variant>{};
    };
    return family;
}

WarmTuner
warm_tuner(const VariantFamily& family, Metric metric, double toq_percent,
           const std::vector<std::uint64_t>& training_seeds,
           int check_interval)
{
    WarmTuner out;
    const auto store = family.key ? store::ArtifactStore::global() : nullptr;
    if (store) {
        if (auto stored = store->load_calibration(*family.key)) {
            std::vector<Variant> variants = family.rebuild(*stored);
            if (!variants.empty()) {
                auto tuner = std::make_unique<Tuner>(
                    std::move(variants), metric, toq_percent,
                    check_interval);
                if (tuner->restore_calibration(stored->calibration)) {
                    out.tuner = std::move(tuner);
                    out.warm = true;
                    out.record = std::move(*stored);
                    return out;
                }
            }
        }
    }

    out.tuner = std::make_unique<Tuner>(family.build(out.record), metric,
                                        toq_percent, check_interval);
    out.tuner->calibrate(training_seeds);
    out.record.calibration = out.tuner->calibration_state();
    out.record.toq = toq_percent;
    out.record.metric = to_string(metric);
    if (store)
        store->save_calibration(*family.key, out.record);
    return out;
}

}  // namespace paraprox::runtime

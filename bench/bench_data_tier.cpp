/// @file
/// The approximate data tier across the Fig. 11 applications: build each
/// app's precision-plan family, calibrate it at TOQ=90%, and report the
/// selection's modeled-cycle speedup and priced-byte reduction against
/// all-fp32 storage, plus a serve-layer warm-restart check (a second
/// registration must restore the stored precision calibration with zero
/// plan search).
///
/// Flags:
///   --smoke   smaller app scale, fewer seeds; prints one greppable
///             `data_tier_smoke:` line.  The acceptance checks run in
///             both modes (all numbers are modeled and deterministic).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_support.h"
#include "runtime/data_tier.h"
#include "runtime/quality.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/stats.h"
#include "support/temp_dir.h"
#include "vm/program_cache.h"

namespace paraprox::bench {
namespace {

constexpr double kToq = 90.0;

struct TierMeasurement {
    std::string app;
    bool has_tier = false;   ///< False: multi-kernel app or no packable buffer.
    std::size_t plans = 0;   ///< Family size including the exact plan.
    std::string selected;    ///< Tuner's pick at TOQ=90%.
    double quality = 100.0;  ///< Selection's quality on the held-out seed.
    double speedup = 1.0;    ///< Exact modeled cycles / selection's.
    double bytes_ratio = 1.0;  ///< Exact priced bytes / selection's.
};

/// Build + calibrate one app's precision tier and measure the selection
/// on a held-out seed.
TierMeasurement
measure_tier(apps::Application& app, const device::DeviceModel& device,
             const std::vector<std::uint64_t>& seeds,
             std::uint64_t holdout_seed)
{
    TierMeasurement m;
    m.app = app.info().name;
    const auto setup = app.setup(device);
    if (!setup)
        return m;  // Multi-kernel serving unit: outside the data tier.

    runtime::DataTier tier =
        runtime::build_data_tier(*setup->session, setup->plan);
    if (tier.variants.size() < 2)
        return m;  // Safety analysis pinned every buffer exact.
    m.has_tier = true;
    m.plans = tier.variants.size();

    runtime::Tuner tuner(tier.variants, app.info().metric, kToq);
    // The modeled choice.  The tuner itself may serve exact: the
    // interpreter decodes packed loads, so in wall clock a plan can lose.
    const int selected =
        runtime::modeled_order(tuner.calibrate(seeds)).front();
    m.selected = tier.variants[static_cast<std::size_t>(selected)].label;

    const runtime::VariantRun exact = tier.variants[0].run(holdout_seed);
    const runtime::VariantRun chosen =
        tier.variants[static_cast<std::size_t>(selected)].run(holdout_seed);
    m.quality = runtime::quality_percent(app.info().metric, exact.output,
                                         chosen.output);
    if (chosen.modeled_cycles > 0.0)
        m.speedup = exact.modeled_cycles / chosen.modeled_cycles;
    if (chosen.modeled_bytes > 0) {
        m.bytes_ratio = static_cast<double>(exact.modeled_bytes) /
                        static_cast<double>(chosen.modeled_bytes);
    }
    return m;
}

struct WarmPhaseResult {
    bool first_warm = false;
    bool second_warm = false;
    std::uint64_t second_warm_tiers = 0;
    std::string first_selected;
    std::string second_selected;
};

/// Register one app's data tier with serve::ApproxService twice against
/// the artifact store, simulating a process restart in between.
WarmPhaseResult
run_warm_phase(double scale, const std::vector<std::uint64_t>& seeds)
{
    WarmPhaseResult result;

    // Honour an ambient store (CI sets PARAPROX_STORE_DIR so a second
    // *process* starts warm); otherwise use a fresh temp dir of this
    // process's own, removed on return.
    std::optional<support::TempDir> scratch;
    std::shared_ptr<store::ArtifactStore> local_store;
    if (std::getenv("PARAPROX_STORE_DIR") == nullptr) {
        scratch.emplace("bench-data-tier-store");
        local_store = store::ArtifactStore::configure_global(scratch->path);
    }

    const auto device = device::DeviceModel::gtx560();
    serve::ServiceConfig config;
    config.num_workers = 2;

    const auto register_once = [&](bool& warm, std::string& selected,
                                   std::uint64_t* warm_tiers) {
        auto apps = make_scaled_apps(scale, {"BlackScholes"});
        const auto setup = apps.front()->setup(device);
        serve::ApproxService service(config);
        const auto metric = apps.front()->info().metric;
        service.register_family(
            "bs",
            runtime::data_tier_family(*setup->session, setup->plan, metric,
                                      kToq),
            metric, kToq, seeds);
        service.submit("bs", 77);
        service.drain();
        const auto metrics = service.metrics().snapshot();
        warm = metrics.warm_data_tiers > 0;
        if (warm_tiers != nullptr)
            *warm_tiers = metrics.warm_data_tiers;
        selected = service.kernel_snapshot("bs").selected;
        service.stop();
    };

    register_once(result.first_warm, result.first_selected, nullptr);

    // Simulate a restart: drop the in-memory bytecode tier; only the
    // artifact store survives.
    vm::ProgramCache::global().clear();
    register_once(result.second_warm, result.second_selected,
                  &result.second_warm_tiers);

    if (local_store != nullptr)
        store::ArtifactStore::disable_global();
    return result;
}

int
run(bool smoke)
{
    const double scale = smoke ? 0.25 : 0.5;
    const std::vector<std::uint64_t> seeds =
        smoke ? std::vector<std::uint64_t>{101}
              : std::vector<std::uint64_t>{101, 202};
    const std::uint64_t holdout_seed = 7;
    const auto device = device::DeviceModel::gtx560();

    print_header("Approximate data tier: storage-codec plans at TOQ=90% "
                 "(modeled cycles and priced bytes vs. all-fp32)");
    print_row({"Application", "plans", "selected", "quality",
               "cycleX", "bytesX"},
              18);

    BenchReport report("data_tier", smoke);
    report.config()
        .set("toq", kToq)
        .set("scale", scale)
        .set("seeds", static_cast<std::uint64_t>(seeds.size()))
        .set("smoke", smoke);

    auto apps = make_scaled_apps(scale);
    std::vector<double> speedups;
    std::vector<double> byte_ratios;
    std::size_t tiers = 0;
    std::size_t wins = 0;
    for (const auto& app : apps) {
        const TierMeasurement m =
            measure_tier(*app, device, seeds, holdout_seed);
        if (!m.has_tier) {
            print_row({m.app, "-", "-", "-", "-", "-"}, 18);
            report.add_row().set("app", m.app).set("has_tier", false);
            continue;
        }
        ++tiers;
        speedups.push_back(m.speedup);
        byte_ratios.push_back(m.bytes_ratio);
        if (m.speedup >= 1.2 || m.bytes_ratio >= 1.2)
            ++wins;
        print_row({m.app, std::to_string(m.plans), m.selected,
                   fmt(m.quality), fmt(m.speedup) + "x",
                   fmt(m.bytes_ratio) + "x"},
                  18);
        report.add_row()
            .set("app", m.app)
            .set("has_tier", true)
            .set("plans", static_cast<std::uint64_t>(m.plans))
            .set("selected", m.selected)
            .set("quality", m.quality)
            .set("cycle_speedup", m.speedup)
            .set("bytes_ratio", m.bytes_ratio);
    }

    const double cycle_geomean = stats::geomean(speedups);
    const double bytes_geomean = stats::geomean(byte_ratios);
    std::printf("\n%zu/%zu apps expose a precision tier; %zu with a "
                ">=1.2x win (cycles or bytes)\n",
                tiers, apps.size(), wins);
    std::printf("geomean over tiered apps: %.2fx modeled cycles, %.2fx "
                "priced bytes\n",
                cycle_geomean, bytes_geomean);
    report.set_geomean(cycle_geomean);

    const auto warm = run_warm_phase(scale, seeds);
    std::printf("\nwarm restart: first registration %s, second %s "
                "(warm_data_tiers=%llu, selected %s)\n",
                warm.first_warm ? "warm" : "cold",
                warm.second_warm ? "warm" : "cold",
                static_cast<unsigned long long>(warm.second_warm_tiers),
                warm.second_selected.c_str());
    report.add_row()
        .set("kind", "warm_restart")
        .set("first_warm", warm.first_warm)
        .set("second_warm", warm.second_warm)
        .set("selected", warm.second_selected);
    report.write();

    if (smoke) {
        std::printf("data_tier_smoke: tiers=%zu wins=%zu "
                    "cycle_geomean=%.2f bytes_geomean=%.2f "
                    "first_warm=%d second_warm=%d\n",
                    tiers, wins, cycle_geomean, bytes_geomean,
                    warm.first_warm ? 1 : 0, warm.second_warm ? 1 : 0);
    }

    // Acceptance: the tier must apply broadly (>=8 apps), at least 8
    // apps must show a >=1.2x modeled win at TOQ>=90% (the geomean of
    // byte reduction bounds the bandwidth story), and a restart must
    // restore the stored calibration without a plan search.
    bool ok = true;
    if (tiers < 8) {
        std::printf("FAIL: only %zu apps expose a data tier\n", tiers);
        ok = false;
    }
    if (wins < 8) {
        std::printf("FAIL: only %zu apps show a >=1.2x modeled win\n",
                    wins);
        ok = false;
    }
    if (std::max(cycle_geomean, bytes_geomean) < 1.2) {
        std::printf("FAIL: geomean win %.2fx below 1.2x\n",
                    std::max(cycle_geomean, bytes_geomean));
        ok = false;
    }
    if (!warm.second_warm) {
        std::printf("FAIL: second registration re-searched the plans\n");
        ok = false;
    }
    if (warm.second_selected != warm.first_selected) {
        std::printf("FAIL: warm restart changed the selection (%s vs "
                    "%s)\n",
                    warm.second_selected.c_str(),
                    warm.first_selected.c_str());
        ok = false;
    }
    std::printf("%s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

}  // namespace
}  // namespace paraprox::bench

int
main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--smoke")
            smoke = true;
    return paraprox::bench::run(smoke);
}

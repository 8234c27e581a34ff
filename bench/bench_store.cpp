/// @file
/// bench_store: cold-vs-warm session setup through the artifact store.
///
/// Pass 1 builds a KernelSession + warm tuner for each case-study kernel
/// at process entry, against whatever the store directory already holds:
/// the first invocation of this binary is fully cold (table-size search,
/// calibration sweep, bytecode compilation), a second invocation of the
/// same binary is fully warm.  Pass 2 clears the in-memory program cache
/// and rebuilds everything in-process — a fresh process simulated against
/// the now-populated store.
///
/// The store directory is $PARAPROX_STORE_DIR when set, else a fixed
/// path under the system temp directory (so back-to-back invocations
/// still exercise the warm path).
///
/// Flags:
///   --smoke   smaller inputs and fewer kernels; emits the
///             machine-checked line
///               store_smoke: sessions=.. warm_tuners=.. \
///               table_searches=.. store_hits=.. disk_hits=..
///             that CI greps after running the binary twice: the second
///             run must report table_searches=0 and store_hits > 0.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "memo/table.h"
#include "parser/parser.h"
#include "runtime/session.h"
#include "store/artifact_store.h"
#include "support/rng.h"
#include "vm/program_cache.h"

namespace paraprox::bench {
namespace {

struct PassResult {
    int sessions = 0;
    int warm_tuners = 0;
    double session_seconds = 0.0;  ///< Compile + table work, summed.
    double tuner_seconds = 0.0;    ///< Calibration or restore, summed.
    std::uint64_t table_searches = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t disk_hits = 0;
};

core::LaunchPlan
make_plan(int n, float lo, float hi)
{
    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(n, 64);
    plan.output_buffer = "out";
    plan.bind_inputs =
        [n, lo, hi](std::uint64_t seed, exec::ArgPack& args,
                    std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(n, lo, hi))));
            args.buffer("in", *storage.back());
            storage.push_back(std::make_unique<exec::Buffer>(
                exec::Buffer::zeros_f32(n)));
            args.buffer("out", *storage.back());
        };
    return plan;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

PassResult
run_pass(const std::vector<CaseStudyFunction>& functions, int n)
{
    PassResult out;
    const auto store = store::ArtifactStore::global();
    const auto searches_before = memo::table_search_invocations();
    const std::uint64_t store_hits_before =
        store ? store->stats().hits : 0;
    const auto cache_before = vm::ProgramCache::global().stats();

    for (const auto& function : functions) {
        auto module = parser::parse_module(function.source);
        core::CompileOptions options;
        options.toq = 90.0;
        options.device = device::DeviceModel::gtx560();
        options.training = core::uniform_training(function.lo, function.hi);

        auto start = std::chrono::steady_clock::now();
        runtime::KernelSession session(module, "apply", options);
        out.session_seconds += seconds_since(start);
        ++out.sessions;

        const auto plan = make_plan(n, function.lo, function.hi);
        start = std::chrono::steady_clock::now();
        constexpr auto metric = runtime::Metric::MeanRelativeError;
        const auto warm = runtime::warm_tuner(
            runtime::kernel_family(session.variants(plan),
                                   session.calibration_key(metric)),
            metric, options.toq, {11, 22});
        out.tuner_seconds += seconds_since(start);
        out.warm_tuners += warm.warm ? 1 : 0;
    }

    out.table_searches = memo::table_search_invocations() - searches_before;
    if (store)
        out.store_hits = store->stats().hits - store_hits_before;
    out.disk_hits =
        vm::ProgramCache::global().stats().disk_hits - cache_before.disk_hits;
    return out;
}

void
print_pass(const char* label, const PassResult& r)
{
    print_row({label, fmt(r.session_seconds * 1e3, 1),
               fmt(r.tuner_seconds * 1e3, 1),
               std::to_string(r.warm_tuners) + "/" +
                   std::to_string(r.sessions),
               std::to_string(r.table_searches),
               std::to_string(r.store_hits), std::to_string(r.disk_hits)},
              16);
}

int
run(bool smoke)
{
    // Share one store directory across invocations so the second run of
    // this binary exercises the warm path even without the env override.
    std::shared_ptr<store::ArtifactStore> store;
    if (const char* env = std::getenv("PARAPROX_STORE_DIR");
        env != nullptr && *env != '\0') {
        store = store::ArtifactStore::global();
    } else {
        store = store::ArtifactStore::configure_global(
            std::filesystem::temp_directory_path() /
            "paraprox-bench-store");
    }

    auto functions = case_study_functions();
    if (smoke)
        functions.resize(2);
    const int n = smoke ? 256 : 1 << 13;

    print_header(smoke ? "Artifact store: cold vs. warm setup (smoke)"
                       : "Artifact store: cold vs. warm setup");
    std::printf("store: %s (%zu records at entry)\n",
                store->dir().c_str(), store->list().size());
    print_row({"pass", "session ms", "tuner ms", "warm", "tbl-searches",
               "store-hits", "disk-hits"},
              16);

    // Pass 1: process entry — cold on a fresh store, warm on a reused one.
    const PassResult pass1 = run_pass(functions, n);
    print_pass("1 (entry)", pass1);

    // Pass 2: drop the in-memory bytecode tier and rebuild — a fresh
    // process simulated against the store pass 1 just populated.
    vm::ProgramCache::global().clear();
    const PassResult pass2 = run_pass(functions, n);
    print_pass("2 (store-warm)", pass2);

    std::printf("\nwarm setup: %.2fx of cold session time, %.2fx of cold "
                "tuner time\n",
                pass1.session_seconds > 0.0
                    ? pass2.session_seconds / pass1.session_seconds
                    : 0.0,
                pass1.tuner_seconds > 0.0
                    ? pass2.tuner_seconds / pass1.tuner_seconds
                    : 0.0);

    if (smoke) {
        std::printf("store_smoke: sessions=%d warm_tuners=%d "
                    "table_searches=%llu store_hits=%llu disk_hits=%llu\n",
                    pass1.sessions, pass1.warm_tuners,
                    static_cast<unsigned long long>(pass1.table_searches),
                    static_cast<unsigned long long>(pass1.store_hits),
                    static_cast<unsigned long long>(pass1.disk_hits));
    }

    // The in-process warm pass must never search for table sizes or
    // recalibrate: everything it needs was just persisted.
    if (pass2.table_searches != 0 ||
        pass2.warm_tuners != pass2.sessions) {
        std::printf("FAIL: pass 2 was not fully warm\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}

}  // namespace
}  // namespace paraprox::bench

int
main(int argc, char** argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
    return paraprox::bench::run(smoke);
}

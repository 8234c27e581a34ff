/// @file
/// Pipeline composition benchmark: the 3-stage image pipeline (gaussian
/// blur -> sobel -> threshold) tuned *jointly* against an end-to-end
/// TOQ, versus the best uniform per-stage tuning — every stage
/// calibrated to the same per-stage TOQ, swept upward until the
/// composed chain meets the end-to-end target.
///
/// The joint tuner wins because the threshold's binarization masks
/// upstream blur error and the scene's vertical structure makes the
/// sobel row scheme harmless end-to-end, even though its own-stage
/// quality (~70%) fails any per-stage TOQ >= 90.  A per-stage sweep can
/// never select it; the joint search measures end-to-end and can.
///
/// A second phase registers the pipeline with serve::ApproxService
/// against the artifact store twice: the first registration runs the
/// joint search and persists the calibration, the second restores it —
/// zero joint-search probe runs, zero memo-table searches, and the
/// service's warm_pipelines counter ticks.
///
/// Flags:
///   --smoke   smaller grid, fewer seeds; prints one greppable
///             `pipeline_smoke:` line.  The joint-vs-uniform assertion
///             is enforced in both modes (all numbers are modeled and
///             deterministic).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/pipelines.h"
#include "bench/bench_support.h"
#include "memo/table.h"
#include "runtime/pipeline.h"
#include "runtime/quality.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/temp_dir.h"
#include "vm/program_cache.h"

namespace paraprox::bench {
namespace {

constexpr double kToq = 90.0;
constexpr runtime::Metric kMetric = runtime::Metric::L1Norm;

/// All-exact reference runs, shared by both tuning strategies.
struct ExactReference {
    double mean_cycles = 0.0;
    std::vector<std::vector<float>> final_outputs;             // per seed
    std::vector<std::vector<std::vector<float>>> stage_outputs;  // [seed]
};

ExactReference
measure_exact(const runtime::PipelineSession& session,
              const std::vector<std::uint64_t>& seeds)
{
    ExactReference ref;
    const std::vector<int> exact(session.num_stages(), 0);
    for (std::uint64_t seed : seeds) {
        std::vector<std::vector<float>> outputs;
        auto run = session.run_config(exact, seed,
                                      vm::ExecMode::Instrumented, &outputs);
        ref.mean_cycles += run.modeled_cycles;
        ref.final_outputs.push_back(std::move(run.output));
        ref.stage_outputs.push_back(std::move(outputs));
    }
    ref.mean_cycles /= static_cast<double>(seeds.size());
    return ref;
}

/// Measured joint configuration: min end-to-end quality and speedup
/// over the training seeds.
struct MeasuredConfig {
    std::vector<int> members;
    std::string label;
    double quality = 0.0;  ///< Min end-to-end quality over seeds.
    double speedup = 1.0;  ///< Mean-cycles speedup vs. all-exact.
    bool trapped = false;
};

MeasuredConfig
measure_config(const runtime::PipelineSession& session,
               const std::vector<int>& members,
               const std::vector<std::uint64_t>& seeds,
               const ExactReference& ref)
{
    MeasuredConfig out;
    out.members = members;
    out.quality = 100.0;
    double mean_cycles = 0.0;
    std::vector<std::string> labels;
    for (std::size_t s = 0; s < members.size(); ++s) {
        labels.push_back(
            session.stage_session(s).members()[members[s]].label);
    }
    runtime::JointConfig named;
    named.labels = labels;
    out.label = named.label(session.stage_names());

    for (std::size_t i = 0; i < seeds.size(); ++i) {
        auto run = session.run_config(members, seeds[i]);
        if (run.trapped) {
            out.trapped = true;
            out.quality = 0.0;
            return out;
        }
        mean_cycles += run.modeled_cycles;
        out.quality = std::min(
            out.quality, runtime::quality_percent(
                             kMetric, ref.final_outputs[i], run.output));
    }
    mean_cycles /= static_cast<double>(seeds.size());
    out.speedup = mean_cycles > 0.0 ? ref.mean_cycles / mean_cycles : 1.0;
    return out;
}

/// Per-stage member scores from single-deviation runs: the member's
/// quality on its *own stage output* (what a per-stage tuner sees) and
/// the chain cycles (all other stages exact, so ordering chain cycles
/// orders the members).
struct StageMemberScore {
    double min_own_quality = 100.0;
    double mean_cycles = 0.0;
    bool trapped = false;
};

std::vector<std::vector<StageMemberScore>>
score_stage_members(const runtime::PipelineSession& session,
                    const std::vector<std::uint64_t>& seeds,
                    const ExactReference& ref)
{
    std::vector<std::vector<StageMemberScore>> scores(session.num_stages());
    for (std::size_t s = 0; s < session.num_stages(); ++s) {
        const std::size_t members = session.stage_session(s).members().size();
        scores[s].resize(members);
        for (std::size_t m = 1; m < members; ++m) {
            auto& score = scores[s][m];
            std::vector<int> config(session.num_stages(), 0);
            config[s] = static_cast<int>(m);
            for (std::size_t i = 0; i < seeds.size(); ++i) {
                std::vector<std::vector<float>> outputs;
                auto run = session.run_config(
                    config, seeds[i], vm::ExecMode::Instrumented, &outputs);
                if (run.trapped) {
                    score.trapped = true;
                    break;
                }
                score.mean_cycles += run.modeled_cycles;
                score.min_own_quality = std::min(
                    score.min_own_quality,
                    runtime::quality_percent(kMetric,
                                             ref.stage_outputs[i][s],
                                             outputs[s]));
            }
            score.mean_cycles /= static_cast<double>(seeds.size());
        }
        // The exact member: perfect quality at exact cost.
        scores[s][0].min_own_quality = 100.0;
        scores[s][0].mean_cycles = ref.mean_cycles;
    }
    return scores;
}

/// The uniform per-stage baseline: every stage independently picks its
/// fastest member whose own-stage quality meets the per-stage TOQ @p t.
std::vector<int>
uniform_selection(const std::vector<std::vector<StageMemberScore>>& scores,
                  double t)
{
    std::vector<int> members(scores.size(), 0);
    for (std::size_t s = 0; s < scores.size(); ++s) {
        double best_cycles = scores[s][0].mean_cycles;
        for (std::size_t m = 1; m < scores[s].size(); ++m) {
            const auto& score = scores[s][m];
            if (score.trapped || score.min_own_quality < t)
                continue;
            if (score.mean_cycles < best_cycles) {
                best_cycles = score.mean_cycles;
                members[s] = static_cast<int>(m);
            }
        }
    }
    return members;
}

struct WarmPhaseResult {
    bool first_warm = false;       ///< First registration restored.
    bool second_warm = false;      ///< Second registration restored.
    std::uint64_t first_probes = 0;
    std::uint64_t second_probes = 0;
    std::uint64_t second_table_searches = 0;
    std::uint64_t warm_pipelines = 0;
    std::string first_selected;
    std::string second_selected;
};

/// Register the pipeline with serve::ApproxService twice against the
/// artifact store, simulating a process restart in between.
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
        scratch.emplace("bench-pipeline-store");
        local_store = store::ArtifactStore::configure_global(scratch->path);
    }

    serve::ServiceConfig config;
    config.num_workers = 2;

    const auto register_once = [&](bool& warm, std::uint64_t& probes,
                                   std::string& selected,
                                   std::uint64_t* table_searches,
                                   std::uint64_t* warm_pipelines) {
        const std::uint64_t probes_before =
            runtime::joint_search_measurements();
        const std::uint64_t searches_before =
            memo::table_search_invocations();
        const std::uint64_t warm_before =
            store::ArtifactStore::global()
                ? store::ArtifactStore::global()->stats().hits
                : 0;
        (void)warm_before;

        apps::ImagePipelineOptions options;
        options.scale = scale;
        auto built = apps::make_image_pipeline(options);
        runtime::PipelineSession session(std::move(built.pipeline));

        serve::ApproxService service(config);
        service.register_family("edges", session.family(kMetric, kToq),
                                kMetric, kToq, seeds);
        service.submit("edges", 77);
        service.drain();

        const auto snapshot = service.snapshot();
        warm = snapshot.metrics.warm_pipelines > 0;
        if (warm_pipelines != nullptr)
            *warm_pipelines = snapshot.metrics.warm_pipelines;
        probes = runtime::joint_search_measurements() - probes_before;
        if (table_searches != nullptr)
            *table_searches =
                memo::table_search_invocations() - searches_before;
        selected = service.kernel_snapshot("edges").selected;
        service.stop();
    };

    register_once(result.first_warm, result.first_probes,
                  result.first_selected, nullptr, nullptr);

    // Simulate a restart: drop the in-memory bytecode tier; only the
    // artifact store survives.
    vm::ProgramCache::global().clear();
    register_once(result.second_warm, result.second_probes,
                  result.second_selected, &result.second_table_searches,
                  &result.warm_pipelines);

    if (local_store != nullptr)
        store::ArtifactStore::disable_global();
    return result;
}

int
run(bool smoke)
{
    const double scale = smoke ? 0.25 : 0.5;
    const std::vector<std::uint64_t> seeds =
        smoke ? std::vector<std::uint64_t>{1, 2}
              : std::vector<std::uint64_t>{1, 2, 3};

    apps::ImagePipelineOptions options;
    options.scale = scale;
    auto built = apps::make_image_pipeline(options);
    runtime::PipelineSession session(std::move(built.pipeline));

    print_header("Pipeline composition: joint vs. uniform per-stage "
                 "tuning, end-to-end TOQ=90%");
    std::printf("chain `%s` (%dx%d), %zu stages\n", session.name().c_str(),
                built.width, built.height, session.num_stages());

    BenchReport report("pipeline", smoke);
    report.config()
        .set("pipeline", session.name())
        .set("toq", kToq)
        .set("scale", scale)
        .set("width", built.width)
        .set("height", built.height)
        .set("smoke", smoke);

    // Joint tuning: the search prunes the cross product with per-stage
    // cost probes, then the tuner calibrates end-to-end.
    runtime::Tuner tuner(session.joint_variants(), kMetric, kToq);
    // The modeled choice; the runtime serves another when this one loses
    // to exact in wall clock.
    const runtime::JointConfig& chosen =
        session.configs()[runtime::modeled_order(tuner.calibrate(seeds))
                              .front()];
    const auto& info = session.search_info();
    std::printf("joint search: %zu combinations, %zu dominated, %zu "
                "capped, %zu measured end-to-end (%zu stage probes)\n\n",
                info.total_combinations, info.dominated, info.capped,
                info.kept, info.probe_runs);

    const auto ref = measure_exact(session, seeds);
    const auto joint = measure_config(session, chosen.members, seeds, ref);
    const int joint_aggressiveness = chosen.aggressiveness;

    // Uniform per-stage baseline: sweep one shared per-stage TOQ upward
    // and keep the fastest composition that meets the end-to-end target.
    const auto scores = score_stage_members(session, seeds, ref);
    print_row({"per-stage TOQ", "composed configuration", "e2e min q%",
               "speedup"},
              22);
    MeasuredConfig uniform_best;
    uniform_best.members.assign(session.num_stages(), 0);
    uniform_best.quality = 100.0;
    {
        runtime::JointConfig exact_cfg;
        exact_cfg.labels.assign(session.num_stages(), "exact");
        uniform_best.label = exact_cfg.label(session.stage_names());
    }
    std::vector<std::vector<int>> tried;
    for (double t : {90.0, 92.5, 95.0, 97.5, 99.0}) {
        const auto members = uniform_selection(scores, t);
        if (std::find(tried.begin(), tried.end(), members) != tried.end())
            continue;
        tried.push_back(members);
        const auto measured = measure_config(session, members, seeds, ref);
        print_row({fmt(t, 1), measured.label, fmt(measured.quality),
                   fmt(measured.speedup) + "x"},
                  22);
        report.add_row()
            .set("kind", "uniform")
            .set("per_stage_toq", t)
            .set("config", measured.label)
            .set("e2e_quality_min", measured.quality)
            .set("speedup", measured.speedup);
        if (!measured.trapped && measured.quality >= kToq &&
            measured.speedup > uniform_best.speedup) {
            uniform_best = measured;
        }
    }

    std::printf("\nuniform best meeting e2e TOQ: %s (%.2fx, min q "
                "%.2f%%)\n",
                uniform_best.label.c_str(), uniform_best.speedup,
                uniform_best.quality);
    std::printf("joint selection:              %s (%.2fx, min q "
                "%.2f%%)\n",
                joint.label.c_str(), joint.speedup, joint.quality);

    report.add_row()
        .set("kind", "joint")
        .set("config", joint.label)
        .set("e2e_quality_min", joint.quality)
        .set("speedup", joint.speedup)
        .set("aggressiveness", joint_aggressiveness);
    report.add_row()
        .set("kind", "uniform_best")
        .set("config", uniform_best.label)
        .set("e2e_quality_min", uniform_best.quality)
        .set("speedup", uniform_best.speedup);

    // Warm restart through the serving layer + artifact store.
    const auto warm = run_warm_phase(scale, seeds);
    std::printf("\nwarm restart: first registration %s (%llu joint "
                "probes), second %s (%llu probes, %llu table searches, "
                "warm_pipelines=%llu)\n",
                warm.first_warm ? "warm" : "cold",
                static_cast<unsigned long long>(warm.first_probes),
                warm.second_warm ? "warm" : "cold",
                static_cast<unsigned long long>(warm.second_probes),
                static_cast<unsigned long long>(
                    warm.second_table_searches),
                static_cast<unsigned long long>(warm.warm_pipelines));
    report.add_row()
        .set("kind", "warm_restart")
        .set("first_warm", warm.first_warm)
        .set("second_warm", warm.second_warm)
        .set("second_probes", warm.second_probes)
        .set("second_table_searches", warm.second_table_searches)
        .set("selected", warm.second_selected);
    report.write();

    if (smoke) {
        std::printf("pipeline_smoke: joint_speedup=%.2f "
                    "uniform_speedup=%.2f joint_quality=%.2f "
                    "first_warm=%d second_warm=%d second_probes=%llu "
                    "second_table_searches=%llu warm_pipelines=%llu\n",
                    joint.speedup, uniform_best.speedup, joint.quality,
                    warm.first_warm ? 1 : 0, warm.second_warm ? 1 : 0,
                    static_cast<unsigned long long>(warm.second_probes),
                    static_cast<unsigned long long>(
                        warm.second_table_searches),
                    static_cast<unsigned long long>(warm.warm_pipelines));
    }

    // Acceptance: the joint config is genuinely mixed, meets the
    // end-to-end TOQ, strictly beats the best uniform composition, and
    // the warm path reran nothing.
    bool ok = true;
    const bool mixed = joint_aggressiveness > 0 &&
                       joint.label.find("exact") != std::string::npos;
    if (!mixed) {
        std::printf("FAIL: joint selection is not a mixed "
                    "aggressive/exact configuration\n");
        ok = false;
    }
    if (joint.quality < kToq) {
        std::printf("FAIL: joint selection misses the end-to-end TOQ\n");
        ok = false;
    }
    if (joint.speedup <= uniform_best.speedup) {
        std::printf("FAIL: joint (%.2fx) does not beat uniform "
                    "per-stage tuning (%.2fx)\n",
                    joint.speedup, uniform_best.speedup);
        ok = false;
    }
    if (!warm.second_warm || warm.second_probes != 0 ||
        warm.second_table_searches != 0) {
        std::printf("FAIL: warm restart reran the joint search\n");
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

/// @file
/// Shared plumbing for the paper-figure benchmark harnesses: tuner-driven
/// app measurement (Fig. 11/12/13/14), the four analytic map functions of
/// §4.4.2 (Figs. 15/16/17), and fixed-width table printing.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.h"
#include "device/memory_model.h"
#include "runtime/tuner.h"
#include "transforms/memoize.h"

namespace paraprox::bench {

/// Result of tuning one application on one device at a TOQ.
struct AppMeasurement {
    std::string app;
    std::string device;
    std::string chosen;     ///< Selected variant label ("exact" if none).
    double speedup = 1.0;   ///< Modeled-cycles speedup of the selection.
    double wall_speedup = 1.0;
    double quality = 100.0; ///< Quality of the selection.
    std::vector<runtime::VariantProfile> profiles;  ///< All variants.
    std::vector<float> exact_output;   ///< From the measurement seed.
    std::vector<float> chosen_output;
};

/// Calibrate @p app on @p device at @p toq over @p seeds and report the
/// tuner's selection.
AppMeasurement measure_app(apps::Application& app,
                           const device::DeviceModel& device, double toq,
                           const std::vector<std::uint64_t>& seeds);

/// ParaCL sources for the four §4.4.2 case-study functions, each exposing
/// one heavy pure function `f(x)` and a map kernel `apply`.
const char* credit_card_source();     ///< Credit card balance equation.
const char* gompertz_source();        ///< Shifted Gompertz distribution.
const char* lgamma_source();          ///< Log-gamma.
const char* bass_source();            ///< Bass diffusion model.

/// Input domain [lo, hi) for each case-study function.
struct CaseStudyFunction {
    const char* name;
    const char* source;
    float lo;
    float hi;
};
std::vector<CaseStudyFunction> case_study_functions();

/// One memoized run of a case-study function's map kernel.
struct CaseStudyResult {
    double quality = 100.0;    ///< L1-norm quality vs. exact.
    double speedup = 1.0;      ///< Modeled-cycles speedup.
    double serialization = 0.0;  ///< extra transactions / transactions, %.
};

/// Memoize @p function's `apply` kernel with a table of 2^bits entries at
/// the given placement and lookup mode, then run exact and approximate
/// over @p n uniformly distributed inputs under @p device.
CaseStudyResult run_case_study(const CaseStudyFunction& function, int bits,
                               transforms::TableLocation location,
                               transforms::LookupMode mode,
                               const device::DeviceModel& device,
                               int n = 1 << 15);

/// All Fig. 11 applications at @p scale; when @p wanted is non-empty,
/// only the named applications, in @p wanted's order.  Every bench
/// builds its app list through this helper so scale handling stays in
/// one place.
std::vector<std::unique_ptr<apps::Application>>
make_scaled_apps(double scale, const std::vector<std::string>& wanted = {});

/// Insertion-ordered JSON object with pre-encoded fields; the building
/// block of BenchReport (rows and the config section are JsonObjects).
class JsonObject {
  public:
    JsonObject& set(const std::string& key, const std::string& value);
    JsonObject& set(const std::string& key, const char* value);
    JsonObject& set(const std::string& key, double value);
    JsonObject& set(const std::string& key, std::uint64_t value);
    JsonObject& set(const std::string& key, int value);
    JsonObject& set(const std::string& key, bool value);
    std::string dump() const;  ///< `{"k": v, ...}` on one line.

  private:
    JsonObject& raw(const std::string& key, std::string encoded);
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// Machine-readable companion to a bench's stdout tables: collects a
/// config section, per-app rows, and an optional geomean, then writes
/// `BENCH_<name>.json` into the working directory so CI and scripts can
/// consume results without scraping tables.  A smoke run writes
/// `BENCH_<name>.smoke.json` instead, which git ignores, so it never
/// replaces a checked-in full-run baseline.
class BenchReport {
  public:
    explicit BenchReport(std::string name, bool smoke = false);

    JsonObject& config() { return config_; }
    JsonObject& add_row();
    void set_geomean(double value);

    /// Serialize to the report's file; returns the path written, or an
    /// empty string (with a note on stdout) if the write failed.
    std::string write() const;

  private:
    std::string name_;
    bool smoke_ = false;
    JsonObject config_;
    std::vector<JsonObject> rows_;
    double geomean_ = 0.0;
    bool has_geomean_ = false;
};

/// Structural JSON well-formedness check (objects, arrays, strings,
/// numbers, booleans, null — no semantic schema).  BenchReport::write
/// gates on it before and after the atomic write, so a malformed or
/// truncated BENCH_*.json can never be published for CI to archive.
bool json_wellformed(const std::string& text);

/// Worker-thread count for concurrency benchmarks: the global pool's
/// size, which honours the PARAPROX_THREADS environment override.
std::size_t default_thread_count();

/// Print a horizontal rule + title.
void print_header(const std::string& title);

/// printf helper for one row of fixed-width cells.
void print_row(const std::vector<std::string>& cells, int width = 14);

/// Format a double with the given precision.
std::string fmt(double value, int precision = 2);

}  // namespace paraprox::bench

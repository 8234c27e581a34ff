/// @file
/// A test double for calibration's wall-clock verdict.
///
/// Calibration never serves a variant whose Fast-mode wall exceeds
/// exact's on every training input.  On the small inputs the tests use,
/// some approximations run within timing noise of exact in the
/// interpreter, and a data tier's packed plans lose to it, so which
/// variant is served would follow the load on the machine.  A test that
/// checks the modeled choice wraps its variants in without_wall().

#pragma once

#include <vector>

#include "runtime/tuner.h"

namespace paraprox::test_doubles {

/// @p variants whose Fast runs report no wall: calibration then gives no
/// slower-than-exact verdict and serves the modeled choice.
inline std::vector<runtime::Variant>
without_wall(std::vector<runtime::Variant> variants)
{
    for (runtime::Variant& variant : variants) {
        auto fast = variant.run_fast ? variant.run_fast : variant.run;
        variant.run_fast = [fast](const runtime::Input& input) {
            runtime::VariantRun run = fast(input);
            run.wall_seconds = 0.0;
            return run;
        };
    }
    return variants;
}

}  // namespace paraprox::test_doubles

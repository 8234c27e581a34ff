/// @file
/// Machine-learning scenario: kernel density estimation approximated by
/// reduction sampling + adjustment (§3.3).  Demonstrates the skipping-rate
/// knob's quality/speed staircase and the safety fallback: an
/// intentionally broken variant traps (out-of-bounds) and the tuner
/// refuses it.
///
///   $ ./examples/ml_kernel_density

#include <cstdio>

#include "apps/app.h"
#include "device/device_model.h"
#include "exec/launch.h"
#include "parser/parser.h"
#include "runtime/tuner.h"
#include "vm/compiler.h"

using namespace paraprox;

int
main()
{
    auto app = apps::make_kernel_density();
    app->set_scale(0.5);
    const auto device = device::DeviceModel::core_i7();

    std::printf("Kernel density estimation on %s (expf dominates on CPUs, "
                "so sampling the\nreduction loop pays off; §4.3).\n\n",
                device.name.c_str());

    auto variants = app->variants(device);

    // Add a deliberately unsafe "variant" to show the §5 safety story:
    // it indexes past the end of its buffer, traps in the VM, and can
    // never be selected.
    {
        auto module = parser::parse_module(R"(
            __kernel void bad(__global float* out) {
                int i = get_global_id(0);
                out[i * 1000 + 7] = 1.0f;
            }
        )");
        auto program = std::make_shared<vm::Program>(
            vm::compile_kernel(module, "bad"));
        variants.push_back(
            {"broken (out-of-bounds)", 9, [program](const runtime::Input&) {
                 exec::Buffer out = exec::Buffer::zeros_f32(64);
                 exec::ArgPack args;
                 args.buffer("out", out);
                 auto launch = exec::launch(
                     *program, args, exec::LaunchConfig::linear(64, 64));
                 runtime::VariantRun run;
                 run.trapped = launch.trapped;
                 run.output = out.to_floats();
                 run.modeled_cycles = 1.0;
                 return run;
             }});
    }

    runtime::Tuner tuner(std::move(variants), app->info().metric, 90.0);
    const auto& profiles = tuner.calibrate({5, 6});
    std::printf("%-28s %-10s %-10s %s\n", "variant", "quality%", "speedup",
                "status");
    for (const auto& profile : profiles) {
        std::printf("%-28s %-10.2f %-10.2f %s\n", profile.label.c_str(),
                    profile.quality, profile.speedup,
                    profile.trapped ? "TRAPPED (excluded)"
                    : profile.meets_toq ? "ok"
                                        : "below TOQ");
    }
    std::printf("\nselected: %s\n", tuner.selected_label().c_str());
    return 0;
}

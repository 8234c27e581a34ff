// Unit tests for the bytecode compiler and VM, driven end-to-end through
// the parser and exec layers (parse -> compile -> launch -> inspect).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "apps/app.h"
#include "exec/launch.h"
#include "parser/parser.h"
#include "support/error.h"
#include "vm/compiler.h"

namespace paraprox {
namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;
using vm::compile_kernel;
using vm::Opcode;

/// Compile the single kernel in @p source and run it over @p n work-items.
exec::LaunchResult
run1d(const std::string& source, ArgPack& args, int global, int local = 1)
{
    auto module = parser::parse_module(source);
    auto kernels = module.kernels();
    auto program = compile_kernel(module, kernels[0]->name);
    return exec::launch(program, args, LaunchConfig::linear(global, local));
}

TEST(VmTest, CopyKernel)
{
    Buffer in = Buffer::from_floats({1.0f, 2.0f, 3.0f, 4.0f});
    Buffer out = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("in", in).buffer("out", out);
    auto result = run1d(R"(
        __kernel void copy(__global float* in, __global float* out) {
            int i = get_global_id(0);
            out[i] = in[i];
        }
    )", args, 4);
    EXPECT_FALSE(result.trapped);
    EXPECT_EQ(out.to_floats(), in.to_floats());
}

TEST(VmTest, ArithmeticAndMath)
{
    Buffer out = Buffer::zeros_f32(1);
    ArgPack args;
    args.buffer("out", out);
    run1d(R"(
        __kernel void k(__global float* out) {
            float a = sqrtf(16.0f) + expf(0.0f) - logf(1.0f);
            float b = powf(2.0f, 3.0f) + fabsf(-1.0f);
            float c = fminf(3.0f, 4.0f) + fmaxf(3.0f, 4.0f) + floorf(2.7f);
            out[0] = a + b + c;
        }
    )", args, 1);
    // a=5, b=9, c=3+4+2=9 -> 23.
    EXPECT_FLOAT_EQ(out.get_float(0), 23.0f);
}

TEST(VmTest, IntOps)
{
    Buffer out = Buffer::zeros_i32(8);
    ArgPack args;
    args.buffer("out", out);
    run1d(R"(
        __kernel void k(__global int* out) {
            out[0] = 7 / 2;
            out[1] = 7 % 3;
            out[2] = 1 << 4;
            out[3] = 256 >> 2;
            out[4] = 12 & 10;
            out[5] = 12 | 3;
            out[6] = 5 ^ 1;
            out[7] = min(3, max(9, 4));
        }
    )", args, 1);
    auto v = out.to_ints();
    EXPECT_EQ(v[0], 3);
    EXPECT_EQ(v[1], 1);
    EXPECT_EQ(v[2], 16);
    EXPECT_EQ(v[3], 64);
    EXPECT_EQ(v[4], 8);
    EXPECT_EQ(v[5], 15);
    EXPECT_EQ(v[6], 4);
    EXPECT_EQ(v[7], 3);
}

TEST(VmTest, ControlFlow)
{
    Buffer out = Buffer::zeros_i32(16);
    ArgPack args;
    args.buffer("out", out);
    run1d(R"(
        __kernel void k(__global int* out) {
            int i = get_global_id(0);
            if (i % 2 == 0) {
                out[i] = i * 10;
            } else {
                out[i] = -i;
            }
        }
    )", args, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out.get_int(i), i % 2 == 0 ? i * 10 : -i);
}

TEST(VmTest, LoopAccumulation)
{
    Buffer out = Buffer::zeros_i32(1);
    ArgPack args;
    args.buffer("out", out).scalar("n", 100);
    run1d(R"(
        __kernel void k(__global int* out, int n) {
            int sum = 0;
            for (int i = 0; i < n; i++) { sum += i; }
            out[0] = sum;
        }
    )", args, 1);
    EXPECT_EQ(out.get_int(0), 4950);
}

TEST(VmTest, UserFunctionInlining)
{
    Buffer out = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("out", out);
    run1d(R"(
        float poly(float x) {
            if (x < 0.0f) { return -x; }
            return x * x + 1.0f;
        }
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            out[i] = poly((float)(i) - 2.0f);
        }
    )", args, 4);
    EXPECT_FLOAT_EQ(out.get_float(0), 2.0f);   // |-2|
    EXPECT_FLOAT_EQ(out.get_float(1), 1.0f);   // |-1|
    EXPECT_FLOAT_EQ(out.get_float(2), 1.0f);   // 0^2+1
    EXPECT_FLOAT_EQ(out.get_float(3), 2.0f);   // 1^2+1
}

TEST(VmTest, NestedInlining)
{
    Buffer out = Buffer::zeros_f32(1);
    ArgPack args;
    args.buffer("out", out);
    run1d(R"(
        float inner(float x) { return x + 1.0f; }
        float outer(float x) { return inner(x) * inner(x + 1.0f); }
        __kernel void k(__global float* out) {
            out[0] = outer(1.0f);
        }
    )", args, 1);
    EXPECT_FLOAT_EQ(out.get_float(0), 6.0f);  // (1+1)*(2+1)
}

TEST(VmTest, GeometryBuiltins)
{
    Buffer out = Buffer::zeros_i32(6);
    ArgPack args;
    args.buffer("out", out);
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out) {
            int g = get_global_id(0);
            if (g == 5) {
                out[0] = get_global_id(0);
                out[1] = get_local_id(0);
                out[2] = get_group_id(0);
                out[3] = get_local_size(0);
                out[4] = get_num_groups(0);
                out[5] = get_global_size(0);
            }
        }
    )");
    auto program = compile_kernel(module, "k");
    exec::launch(program, args, LaunchConfig::linear(8, 4));
    EXPECT_EQ(out.get_int(0), 5);
    EXPECT_EQ(out.get_int(1), 1);
    EXPECT_EQ(out.get_int(2), 1);
    EXPECT_EQ(out.get_int(3), 4);
    EXPECT_EQ(out.get_int(4), 2);
    EXPECT_EQ(out.get_int(5), 8);
}

TEST(VmTest, TwoDimensionalLaunch)
{
    Buffer out = Buffer::zeros_i32(12);
    ArgPack args;
    args.buffer("out", out).scalar("w", 4);
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out, int w) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            out[y * w + x] = y * 100 + x;
        }
    )");
    auto program = compile_kernel(module, "k");
    exec::launch(program, args, LaunchConfig::grid2d(4, 3, 2, 1));
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 4; ++x)
            EXPECT_EQ(out.get_int(y * 4 + x), y * 100 + x);
}

TEST(VmTest, AtomicsAccumulateAcrossGroups)
{
    Buffer counter = Buffer::zeros_i32(1);
    Buffer fsum = Buffer::zeros_f32(1);
    ArgPack args;
    args.buffer("counter", counter).buffer("fsum", fsum);
    run1d(R"(
        __kernel void k(__global int* counter, __global float* fsum) {
            atomic_inc(counter, 0);
            atomic_add(fsum, 0, 0.5f);
        }
    )", args, 256, 16);
    EXPECT_EQ(counter.get_int(0), 256);
    EXPECT_FLOAT_EQ(fsum.get_float(0), 128.0f);
}

TEST(VmTest, AtomicMinMax)
{
    Buffer lo = Buffer::from_ints({1000000});
    Buffer hi = Buffer::from_ints({-1000000});
    ArgPack args;
    args.buffer("lo", lo).buffer("hi", hi);
    run1d(R"(
        __kernel void k(__global int* lo, __global int* hi) {
            int i = get_global_id(0);
            atomic_min(lo, 0, i * 7 % 113);
            atomic_max(hi, 0, i * 7 % 113);
        }
    )", args, 128, 32);
    EXPECT_EQ(lo.get_int(0), 0);
    EXPECT_EQ(hi.get_int(0), 112);
}

TEST(VmTest, BarrierSharedMemoryReverse)
{
    Buffer in = Buffer::from_floats({0, 1, 2, 3, 4, 5, 6, 7});
    Buffer out = Buffer::zeros_f32(8);
    ArgPack args;
    args.buffer("in", in).buffer("out", out).shared("tile", 4);
    run1d(R"(
        __kernel void rev(__global float* in, __global float* out,
                          __shared float* tile) {
            int l = get_local_id(0);
            int g = get_global_id(0);
            int n = get_local_size(0);
            tile[l] = in[g];
            barrier();
            out[g] = tile[n - 1 - l];
        }
    )", args, 8, 4);
    std::vector<float> expect = {3, 2, 1, 0, 7, 6, 5, 4};
    EXPECT_EQ(out.to_floats(), expect);
}

TEST(VmTest, OutOfBoundsTrap)
{
    Buffer out = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("out", out);
    auto result = run1d(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            out[i + 100] = 1.0f;
        }
    )", args, 4);
    EXPECT_TRUE(result.trapped);
    EXPECT_NE(result.trap_message.find("out-of-bounds"),
              std::string::npos);
}

TEST(VmTest, DivisionByZeroTrap)
{
    Buffer out = Buffer::zeros_i32(1);
    ArgPack args;
    args.buffer("out", out).scalar("d", 0);
    auto result = run1d(R"(
        __kernel void k(__global int* out, int d) {
            out[0] = 7 / d;
        }
    )", args, 1);
    EXPECT_TRUE(result.trapped);
}

TEST(VmTest, StatsCountInstructions)
{
    Buffer out = Buffer::zeros_f32(64);
    ArgPack args;
    args.buffer("out", out);
    auto result = run1d(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            out[i] = sqrtf((float)(i));
        }
    )", args, 64);
    EXPECT_EQ(result.stats.count(Opcode::Sqrt), 64u);
    EXPECT_EQ(result.stats.count(Opcode::St), 64u);
    EXPECT_GT(result.stats.total_instructions, 64u * 4);
}

TEST(VmTest, ScalarFunctionCompilation)
{
    auto module = parser::parse_module(R"(
        float f(float x, int n) { return x * (float)(n); }
    )");
    auto program = vm::compile_scalar_function(module, "f");
    EXPECT_EQ(program.scalars.size(), 2u);
    EXPECT_TRUE(program.buffers.empty());
}

TEST(VmTest, MismatchedArgumentsRejected)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            out[i] = 0.0f;
        }
    )");
    auto program = compile_kernel(module, "k");
    ArgPack empty;
    EXPECT_THROW(exec::launch(program, empty, LaunchConfig::linear(4, 1)),
                 UserError);
}

TEST(VmTest, BufferTypeMismatchRejected)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            out[i] = 0.0f;
        }
    )");
    auto program = compile_kernel(module, "k");
    Buffer wrong = Buffer::zeros_i32(4);
    ArgPack args;
    args.buffer("out", wrong);
    EXPECT_THROW(exec::launch(program, args, LaunchConfig::linear(4, 1)),
                 UserError);
}

TEST(VmTest, IndivisibleLaunchRejected)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            out[i] = 0.0f;
        }
    )");
    auto program = compile_kernel(module, "k");
    Buffer out = Buffer::zeros_f32(10);
    ArgPack args;
    args.buffer("out", out);
    EXPECT_THROW(exec::launch(program, args, LaunchConfig::linear(10, 4)),
                 UserError);
}

TEST(VmTest, SelectAndLogicalOps)
{
    Buffer out = Buffer::zeros_i32(4);
    ArgPack args;
    args.buffer("out", out);
    run1d(R"(
        __kernel void k(__global int* out) {
            int i = get_global_id(0);
            out[i] = (i > 0 && i < 3) ? 1 : 0;
        }
    )", args, 4);
    EXPECT_EQ(out.get_int(0), 0);
    EXPECT_EQ(out.get_int(1), 1);
    EXPECT_EQ(out.get_int(2), 1);
    EXPECT_EQ(out.get_int(3), 0);
}

TEST(VmTest, NonKernelRejected)
{
    auto module = parser::parse_module("float f() { return 1.0f; }");
    EXPECT_THROW(compile_kernel(module, "f"), UserError);
    EXPECT_THROW(compile_kernel(module, "missing"), UserError);
}

TEST(VmTest, FloatToIntSaturates)
{
    // GPU __float2int_rz semantics: truncate toward zero, saturate when
    // out of range, NaN -> 0.  The plain static_cast these replaced was
    // undefined behaviour for every non-[INT_MIN, INT_MAX] input.
    Buffer out = Buffer::zeros_i32(6);
    ArgPack args;
    args.buffer("out", out)
        .scalar("nan_v", std::numeric_limits<float>::quiet_NaN())
        .scalar("big", 1e10f)
        .scalar("neg_big", -1e10f)
        .scalar("pos", 2.9f)
        .scalar("neg", -2.9f);
    auto result = run1d(R"(
        __kernel void k(__global int* out, float nan_v, float big,
                        float neg_big, float pos, float neg) {
            out[0] = (int)(nan_v);
            out[1] = (int)(big);
            out[2] = (int)(neg_big);
            out[3] = (int)(pos);
            out[4] = (int)(neg);
            out[5] = (int)(nan_v / nan_v);
        }
    )", args, 1);
    EXPECT_FALSE(result.trapped);
    EXPECT_EQ(out.get_int(0), 0);
    EXPECT_EQ(out.get_int(1), std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(out.get_int(2), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(out.get_int(3), 2);
    EXPECT_EQ(out.get_int(4), -2);
    EXPECT_EQ(out.get_int(5), 0);
}

TEST(VmTest, ShiftSemantics)
{
    // `>>` is arithmetic (sign-filling), `<<` wraps mod 2^32, and shift
    // counts are masked to their low 5 bits — see docs/paracl.md.  All
    // operands arrive as scalars so nothing constant-folds on the host.
    Buffer out = Buffer::zeros_i32(6);
    ArgPack args;
    args.buffer("out", out)
        .scalar("m8", -8)
        .scalar("m1", -1)
        .scalar("one", 1)
        .scalar("c33", 33)
        .scalar("s16", 16);
    auto result = run1d(R"(
        __kernel void k(__global int* out, int m8, int m1, int one,
                        int c33, int s16) {
            out[0] = m8 >> one;
            out[1] = m1 << one;
            out[2] = one << 31;
            out[3] = one << c33;
            out[4] = s16 >> c33;
            out[5] = m1 >> 31;
        }
    )", args, 1);
    EXPECT_FALSE(result.trapped);
    EXPECT_EQ(out.get_int(0), -4);   // arithmetic, not logical
    EXPECT_EQ(out.get_int(1), -2);
    EXPECT_EQ(out.get_int(2), std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(out.get_int(3), 2);    // count 33 masked to 1
    EXPECT_EQ(out.get_int(4), 8);
    EXPECT_EQ(out.get_int(5), -1);   // sign fill all the way down
}

TEST(VmTest, DivergentBarrierInLaterRoundTraps)
{
    // All work-items meet the first barrier (round one succeeds); in
    // round two only half reach the second barrier while the rest halt.
    // The multi-round cooperative loop must flag that as divergence, in
    // both execution modes.
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* out) {
            int l = get_local_id(0);
            barrier();
            if (l < 2) { barrier(); }
            out[l] = 1.0f;
        }
    )");
    auto program = compile_kernel(module, "k");
    for (const auto mode :
         {vm::ExecMode::Instrumented, vm::ExecMode::Fast}) {
        Buffer out = Buffer::zeros_f32(4);
        ArgPack args;
        args.buffer("out", out);
        LaunchConfig config = LaunchConfig::linear(4, 4);
        config.mode = mode;
        auto result = exec::launch(program, args, config);
        EXPECT_TRUE(result.trapped);
        EXPECT_NE(result.trap_message.find("divergent barrier"),
                  std::string::npos);
    }
}

TEST(VmTest, FastModeBitIdenticalToInstrumented)
{
    // A kernel dense in fusable pairs: Ld+arith, mul+add, compare+Jz from
    // the loop, and an arith+St at the end.
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* a, __global float* b,
                        __global float* out, int n) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int j = 0; j < n; j++) {
                acc = acc + a[i] * b[i];
                acc = acc * 0.875f + (float)(j);
            }
            out[i] = acc + a[i];
        }
    )");
    auto program = compile_kernel(module, "k");
    ASSERT_FALSE(program.fast_code.empty());
    // Fusion must actually shrink the stream, or fast mode is a no-op.
    EXPECT_LT(program.fast_code.size(), program.code.size());

    const int n = 64;
    std::vector<float> av(n), bv(n);
    for (int i = 0; i < n; ++i) {
        av[i] = 0.25f * static_cast<float>(i) - 3.0f;
        bv[i] = 1.0f / (1.0f + static_cast<float>(i));
    }

    const auto run_mode = [&](vm::ExecMode mode) {
        Buffer a = Buffer::from_floats(av);
        Buffer b = Buffer::from_floats(bv);
        Buffer out = Buffer::zeros_f32(n);
        ArgPack args;
        args.buffer("a", a).buffer("b", b).buffer("out", out)
            .scalar("n", 17);
        LaunchConfig config = LaunchConfig::linear(n, 8);
        config.mode = mode;
        auto result = exec::launch(program, args, config);
        EXPECT_FALSE(result.trapped);
        return std::pair(out.to_floats(), result.stats.total_instructions);
    };

    const auto [instrumented, instr_count] =
        run_mode(vm::ExecMode::Instrumented);
    const auto [fast, fast_count] = run_mode(vm::ExecMode::Fast);

    ASSERT_EQ(instrumented.size(), fast.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::int32_t>(instrumented[i]),
                  std::bit_cast<std::int32_t>(fast[i]))
            << "element " << i;
    }
    // Superinstructions retire the same work in fewer dispatches.
    EXPECT_LT(fast_count, instr_count);
}

TEST(VmTest, FastModeParityAcrossAllApps)
{
    // Property test over every Table 1 application: each variant's fast
    // serving closure must produce bit-identical output to its
    // instrumented closure.  (All app kernels are deterministic — the
    // only atomics are integer, which are order-independent.)
    const device::DeviceModel gpu = device::DeviceModel::gtx560();
    auto applications = apps::make_all_applications();
    for (auto& app : applications) {
        app->set_scale(0.1);
        auto variants = app->variants(gpu);
        ASSERT_FALSE(variants.empty()) << app->info().name;
        for (const auto& variant : variants) {
            ASSERT_TRUE(variant.run_fast != nullptr)
                << app->info().name << ":" << variant.label;
            const auto instrumented = variant.run(7);
            const auto fast = variant.run_fast(7);
            EXPECT_EQ(instrumented.trapped, fast.trapped)
                << app->info().name << ":" << variant.label;
            if (instrumented.trapped)
                continue;
            ASSERT_EQ(instrumented.output.size(), fast.output.size())
                << app->info().name << ":" << variant.label;
            for (std::size_t i = 0; i < fast.output.size(); ++i) {
                ASSERT_EQ(
                    std::bit_cast<std::int32_t>(instrumented.output[i]),
                    std::bit_cast<std::int32_t>(fast.output[i]))
                    << app->info().name << ":" << variant.label
                    << " element " << i;
            }
        }
    }
}

TEST(VmTest, IntegerDivisionOverflowWraps)
{
    // INT_MIN / -1 overflows int32.  The VM defines it as the two's-
    // complement wrap (quotient INT_MIN, remainder 0) instead of letting
    // the host's idiv raise SIGFPE and take the process down.
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out, int a, int b) {
            out[0] = a / b;
            out[1] = a % b;
            out[2] = 7 / b;
            out[3] = 7 % b;
        }
    )");
    auto program = compile_kernel(module, "k");
    for (const auto mode :
         {vm::ExecMode::Instrumented, vm::ExecMode::Fast}) {
        Buffer out = Buffer::zeros_i32(4);
        ArgPack args;
        args.buffer("out", out)
            .scalar("a", std::numeric_limits<std::int32_t>::min())
            .scalar("b", -1);
        LaunchConfig config = LaunchConfig::linear(1, 1);
        config.mode = mode;
        auto result = exec::launch(program, args, config);
        EXPECT_FALSE(result.trapped);
        EXPECT_EQ(out.get_int(0), std::numeric_limits<std::int32_t>::min());
        EXPECT_EQ(out.get_int(1), 0);
        EXPECT_EQ(out.get_int(2), -7);
        EXPECT_EQ(out.get_int(3), 0);
    }
}

TEST(VmTest, IntegerArithmeticWraps)
{
    // Integer + - * and negation wrap mod 2^32 in both modes, including
    // the fused forms Fast mode runs (mul+add, load+add, add+store) and
    // the integer atomics.  Under UBSan any signed-overflow shortcut in
    // the interpreter aborts this test.
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out, __global int* in, int big,
                        int small, int m1) {
            int sum = big + 1;
            out[0] = sum;
            int diff = small - 1;
            out[1] = diff;
            int prod = small * m1;
            out[2] = prod;
            int neg = -small;
            out[3] = neg;
            int madd = big * 3 + big;
            out[4] = madd;
            int loaded = in[0] + big;
            out[5] = loaded;
            out[6] = big + big;
            atomic_add(out, 7, big);
            atomic_inc(out, 8);
        }
    )");
    auto program = compile_kernel(module, "k");
    const std::int32_t big = std::numeric_limits<std::int32_t>::max();
    const std::int32_t small = std::numeric_limits<std::int32_t>::min();
    const auto wrap = [](std::uint32_t word) {
        return static_cast<std::int32_t>(word);
    };
    const auto ubig = static_cast<std::uint32_t>(big);
    const std::vector<std::int32_t> expect = {
        small, big, small, small, wrap(ubig * 3u + ubig), wrap(ubig + 5u),
        wrap(ubig + ubig), wrap(1u + ubig), small};
    for (const auto mode :
         {vm::ExecMode::Instrumented, vm::ExecMode::Fast}) {
        Buffer out = Buffer::from_ints({0, 0, 0, 0, 0, 0, 0, 1, big});
        Buffer in = Buffer::from_ints({5});
        ArgPack args;
        args.buffer("out", out).buffer("in", in)
            .scalar("big", big).scalar("small", small).scalar("m1", -1);
        LaunchConfig config = LaunchConfig::linear(1, 1);
        config.mode = mode;
        auto result = exec::launch(program, args, config);
        EXPECT_FALSE(result.trapped);
        EXPECT_EQ(out.to_ints(), expect);
    }
}

/// Binds a kernel's arguments, owning the buffers it creates.
using BindArgs =
    std::function<void(ArgPack&, std::vector<std::unique_ptr<Buffer>>&)>;

/// What one launch left behind: every bound buffer's words and the trap.
struct ModeRun {
    std::vector<std::vector<std::int32_t>> words;
    exec::LaunchResult result;
};

ModeRun
run_mode(const vm::Program& program, LaunchConfig config, vm::ExecMode mode,
         const BindArgs& bind)
{
    ArgPack args;
    std::vector<std::unique_ptr<Buffer>> buffers;
    bind(args, buffers);
    config.mode = mode;
    ModeRun run;
    run.result = exec::launch(program, args, config);
    for (const auto& buffer : buffers)
        run.words.push_back(buffer->to_ints());
    return run;
}

/// Launch the single kernel in @p source in both modes over fresh
/// arguments and expect Fast mode's lockstep lanes to leave every buffer
/// bit-identical to Instrumented mode's one-item-at-a-time run, with the
/// same trap.  Returns the Fast run.
ModeRun
expect_lanes_match_items(const std::string& source, LaunchConfig config,
                         const BindArgs& bind)
{
    auto module = parser::parse_module(source);
    auto program = compile_kernel(module, module.kernels()[0]->name);
    const ModeRun items =
        run_mode(program, config, vm::ExecMode::Instrumented, bind);
    ModeRun lanes = run_mode(program, config, vm::ExecMode::Fast, bind);
    EXPECT_EQ(items.result.trapped, lanes.result.trapped);
    EXPECT_EQ(items.result.trap_message, lanes.result.trap_message);
    EXPECT_EQ(items.words, lanes.words);
    return lanes;
}

/// Binds one zeroed output buffer `out` of @p n floats.
BindArgs
float_out(int n)
{
    return [n](ArgPack& args, std::vector<std::unique_ptr<Buffer>>& held) {
        held.push_back(std::make_unique<Buffer>(Buffer::zeros_f32(n)));
        args.buffer("out", *held.back());
    };
}

constexpr const char* kDivergentLoopSource = R"(
    __kernel void k(__global float* out) {
        int i = get_global_id(0);
        float acc = 0.5f;
        for (int j = 0; j < i % 13; j++) {
            acc = acc * 1.25f + (float)(j);
        }
        out[i] = acc;
    }
)";

TEST(VmTest, LanesDivergentBackEdge)
{
    // Every lane leaves the loop on a different iteration; lanes that
    // exit early wait at the loop exit for the rest.  Two chunks per
    // group.
    auto fast = expect_lanes_match_items(
        kDivergentLoopSource, LaunchConfig::linear(256, 128), float_out(256));
    EXPECT_FALSE(fast.result.trapped);
}

TEST(VmTest, LanesEarlyReturn)
{
    auto fast = expect_lanes_match_items(R"(
        float clip(float x) {
            if (x < 0.0f) { return -x; }
            float y = x * x;
            if (y > 50.0f) { return 50.0f; }
            return y + 1.0f;
        }
        __kernel void k(__global float* out, __global int* marks) {
            int i = get_global_id(0);
            if (i % 5 == 3) {
                marks[i] = -1;
                return;
            }
            out[i] = clip((float)(i) - 20.0f);
            marks[i] = i;
        }
    )", LaunchConfig::linear(128, 64),
        [](ArgPack& args, std::vector<std::unique_ptr<Buffer>>& held) {
            held.push_back(std::make_unique<Buffer>(Buffer::zeros_f32(128)));
            args.buffer("out", *held.back());
            held.push_back(std::make_unique<Buffer>(Buffer::zeros_i32(128)));
            args.buffer("marks", *held.back());
        });
    EXPECT_FALSE(fast.result.trapped);
    EXPECT_EQ(fast.words[1][3], -1);
    EXPECT_EQ(fast.words[1][4], 4);
}

TEST(VmTest, LanesNestedIfElseInLoop)
{
    expect_lanes_match_items(R"(
        __kernel void k(__global int* out) {
            int i = get_global_id(0);
            int acc = 0;
            for (int j = 0; j < 8; j++) {
                if ((i + j) % 3 == 0) {
                    if (i % 2 == 0) { acc = acc + j; } else { acc = acc - j; }
                } else {
                    if (j > i % 5) { acc = acc * 2; } else { acc = acc + 1; }
                }
            }
            out[i] = acc;
        }
    )", LaunchConfig::linear(192, 64),
        [](ArgPack& args, std::vector<std::unique_ptr<Buffer>>& held) {
            held.push_back(std::make_unique<Buffer>(Buffer::zeros_i32(192)));
            args.buffer("out", *held.back());
        });
}

TEST(VmTest, LanesReconvergeBeforeBarrier)
{
    // Three-way divergence that must rejoin before the barrier; a lane
    // parked early would otherwise look like a divergent barrier.
    auto fast = expect_lanes_match_items(R"(
        __kernel void k(__global float* in, __global float* out,
                        __shared float* tile) {
            int l = get_local_id(0);
            int g = get_global_id(0);
            int n = get_local_size(0);
            float v = in[g];
            if (l % 3 == 0) {
                v = v * 2.0f;
            } else {
                if (l % 3 == 1) { v = v + 1.0f; } else { v = -v; }
            }
            tile[l] = v;
            barrier();
            out[g] = tile[n - 1 - l] + tile[l];
        }
    )", LaunchConfig::linear(128, 64),
        [](ArgPack& args, std::vector<std::unique_ptr<Buffer>>& held) {
            std::vector<float> in(128);
            for (int i = 0; i < 128; ++i)
                in[i] = 0.5f * static_cast<float>(i) - 7.0f;
            held.push_back(std::make_unique<Buffer>(Buffer::from_floats(in)));
            args.buffer("in", *held.back());
            held.push_back(std::make_unique<Buffer>(Buffer::zeros_f32(128)));
            args.buffer("out", *held.back()).shared("tile", 64);
        });
    EXPECT_FALSE(fast.result.trapped);
}

TEST(VmTest, LanesGroupShapeNotMultipleOfWidth)
{
    // A 5x3x2 group: 30 lanes whose local ids wrap in all three
    // dimensions.
    LaunchConfig config{{10, 6, 4}, {5, 3, 2}};
    auto fast = expect_lanes_match_items(R"(
        __kernel void k(__global int* out) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int z = get_global_id(2);
            int idx = (z * get_global_size(1) + y) * get_global_size(0) + x;
            out[idx] = get_local_id(0) + 10 * get_local_id(1)
                     + 100 * get_local_id(2)
                     + 1000 * (get_group_id(0) + 2 * get_group_id(1)
                               + 4 * get_group_id(2));
        }
    )", config,
        [](ArgPack& args, std::vector<std::unique_ptr<Buffer>>& held) {
            held.push_back(std::make_unique<Buffer>(Buffer::zeros_i32(240)));
            args.buffer("out", *held.back());
        });
    for (int z = 0; z < 4; ++z) {
        for (int y = 0; y < 6; ++y) {
            for (int x = 0; x < 10; ++x) {
                const int expect = x % 5 + 10 * (y % 3) + 100 * (z % 2) +
                                   1000 * (x / 5 + 2 * (y / 3) + 4 * (z / 2));
                EXPECT_EQ(fast.words[0][(z * 6 + y) * 10 + x], expect);
            }
        }
    }
}

TEST(VmTest, LanesSharedReverseSpansChunks)
{
    // A 256-item group runs as four chunks per barrier round, so every
    // round must run each chunk up to the barrier before any passes it.
    auto fast = expect_lanes_match_items(R"(
        __kernel void rev(__global float* in, __global float* out,
                          __shared float* tile) {
            int l = get_local_id(0);
            int g = get_global_id(0);
            int n = get_local_size(0);
            tile[l] = in[g];
            barrier();
            float t = tile[n - 1 - l];
            barrier();
            tile[l] = t * 2.0f;
            barrier();
            out[g] = tile[(l + 1) % n];
        }
    )", LaunchConfig::linear(512, 256),
        [](ArgPack& args, std::vector<std::unique_ptr<Buffer>>& held) {
            std::vector<float> in(512);
            for (int i = 0; i < 512; ++i)
                in[i] = static_cast<float>(i);
            held.push_back(std::make_unique<Buffer>(Buffer::from_floats(in)));
            args.buffer("in", *held.back());
            held.push_back(std::make_unique<Buffer>(Buffer::zeros_f32(512)));
            args.buffer("out", *held.back()).shared("tile", 256);
        });
    ASSERT_FALSE(fast.result.trapped);
    for (int g = 0; g < 512; ++g) {
        const int base = g / 256 * 256;
        const int l = g % 256;
        const float expect =
            2.0f * static_cast<float>(base + 255 - (l + 1) % 256);
        EXPECT_EQ(std::bit_cast<float>(fast.words[1][g]), expect)
            << "item " << g;
    }
}

TEST(VmTest, LanesOutOfBoundsLaneTraps)
{
    // Lane 37 of a 64-lane chunk stores out of bounds after the chunk has
    // reconverged: the store must trap, not skip the lane.
    auto fast = expect_lanes_match_items(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            int idx = i;
            if (i == 37) { idx = i + 1000; }
            out[idx] = 1.0f;
        }
    )", LaunchConfig::linear(64, 64), float_out(64));
    EXPECT_TRUE(fast.result.trapped);
    EXPECT_NE(fast.result.trap_message.find("out-of-bounds store to `out`"),
              std::string::npos);
}

TEST(VmTest, FastDispatchCountIndependentOfLocalSize)
{
    // Fast mode counts one dispatch per lane per instruction, so how the
    // NDRange is cut into groups (and so into chunks and splits) does not
    // change the total.
    auto module = parser::parse_module(kDivergentLoopSource);
    auto program = compile_kernel(module, "k");
    const auto count = [&](int local) {
        const ModeRun run =
            run_mode(program, LaunchConfig::linear(256, local),
                     vm::ExecMode::Fast, float_out(256));
        EXPECT_FALSE(run.result.trapped);
        return run.result.stats.total_instructions;
    };
    const std::uint64_t per_item = count(1);
    EXPECT_GT(per_item, 0u);
    EXPECT_EQ(count(64), per_item);
}

}  // namespace
}  // namespace paraprox

/// @file
/// perfbench_driver: one benchmark phase per process.  perfbench/run.py
/// builds this binary and sequences the phases; each phase prints one
/// JSON line on stdout.
///
///   perfbench_driver --workload W --phase setup|restart|serve|fleet
///                    --seed N --seconds S --trace 0|1 --store DIR
///                    [--trace-path FILE] [--setups K] [--restarts K]
///                    [--warmup S]
///   perfbench_driver --selftest
///
/// Internal: perfbench_driver --replica-worker W ID SOCKET STORE_DIR

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --phase P --seed N "
                 "--seconds S --trace 0|1 --store DIR\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::g_process_start = perfbench::Clock::now();
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0)
        return perfbench::self_test();
    try {
        if (argc == 6 && std::strcmp(argv[1], "--replica-worker") == 0)
            return perfbench::run_replica_worker(argv[2], argv[3], argv[4],
                                                 argv[5]);
        perfbench::Options options;
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--phase")
                options.phase = value;
            else if (flag == "--seed")
                options.seed = std::strtoull(value.c_str(), nullptr, 10);
            else if (flag == "--seconds")
                options.seconds = std::atof(value.c_str());
            else if (flag == "--trace")
                options.trace = value == "1";
            else if (flag == "--store")
                options.store = value;
            else if (flag == "--trace-path")
                options.trace_path = value;
            else if (flag == "--setups")
                options.setups = std::atoi(value.c_str());
            else if (flag == "--restarts")
                options.restarts = std::atoi(value.c_str());
            else if (flag == "--warmup")
                options.warmup_seconds = std::atof(value.c_str());
            else
                return usage();
        }
        if (options.workload.empty() || options.phase.empty() ||
            options.seconds <= 0 || options.setups < 1 ||
            options.restarts < 1)
            return usage();
        if (options.phase == "fleet")
            return perfbench::run_fleet(options);
        return perfbench::run_inprocess(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 1;
    }
}

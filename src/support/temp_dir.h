/// @file
/// Scratch directories for tests and benches that touch the filesystem.

#pragma once

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace paraprox::support {

/// A fresh directory under the system temp path, removed with everything
/// in it on destruction.  The name carries @p tag, the process id and a
/// per-process counter, so concurrent processes and repeated uses never
/// share one.
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const std::string& tag)
    {
        static std::atomic<int> counter{0};
        path = std::filesystem::temp_directory_path() /
               ("paraprox-" + tag + "-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

}  // namespace paraprox::support

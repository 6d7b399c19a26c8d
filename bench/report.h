// The one writer of every BENCH_*.json report. A bench builds its report as
// a Json value whose "context" starts from context(source), and writes it
// with write_report; the google-benchmark binaries get the same context
// through run_google_benchmarks. Every path that would publish numbers first
// passes refuse_unoptimized_output, so a bench built without NDEBUG exits
// before doing any work and writes nothing.
//
// Include from the bench's own translation unit only: "library_build_type"
// is read from that unit's NDEBUG, the build type of the code measured. (The
// prebuilt libbenchmark reports its own compile flags, not the binary's.)
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/cipher/chacha20.h"
#include "src/hash/sha256.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"

namespace hcpp::bench {

#ifdef NDEBUG
inline constexpr const char* kBuildType = "release";
#else
inline constexpr const char* kBuildType = "debug";
#endif

/// An ordered JSON value: number, bool, string, array or object. Objects
/// keep their members in insertion order so reports diff cleanly.
class Json {
 public:
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  Json(T v) : v_(static_cast<double>(v)) {}   // NOLINT: value-like
  Json(bool v) : v_(v) {}                      // NOLINT
  Json(std::string v) : v_(std::move(v)) {}    // NOLINT
  Json(const char* v) : v_(std::string(v)) {}  // NOLINT

  static Json object() { return Json(Members{}); }
  static Json array() { return Json(Elements{}); }

  /// Appends an object member; returns *this for chaining.
  Json& set(std::string key, Json value) & {
    std::get<Members>(v_).emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json&& set(std::string key, Json value) && {
    set(std::move(key), std::move(value));
    return std::move(*this);
  }

  /// Appends an array element.
  void push(const Json& value) { std::get<Elements>(v_).push_back(value); }

  /// Two-space indented text; `depth` is the indent of the opening line.
  [[nodiscard]] std::string dump(int depth = 0) const {
    std::string out;
    write(out, depth);
    return out;
  }

 private:
  using Members = std::vector<std::pair<std::string, Json>>;
  using Elements = std::vector<Json>;
  explicit Json(Members m) : v_(std::move(m)) {}
  explicit Json(Elements e) : v_(std::move(e)) {}

  static void quote(std::string& out, std::string_view s) {
    out += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
  }

  static void newline(std::string& out, int depth) {
    out += '\n';
    out.append(2 * static_cast<size_t>(depth), ' ');
  }

  void write(std::string& out, int depth) const {
    if (const double* d = std::get_if<double>(&v_)) {
      if (!std::isfinite(*d)) {
        out += "null";  // JSON has no NaN or infinity
        return;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.15g", *d);
      out += buf;
    } else if (const bool* b = std::get_if<bool>(&v_)) {
      out += *b ? "true" : "false";
    } else if (const std::string* s = std::get_if<std::string>(&v_)) {
      quote(out, *s);
    } else if (const Elements* e = std::get_if<Elements>(&v_)) {
      out += '[';
      for (size_t i = 0; i < e->size(); ++i) {
        out += i == 0 ? "" : ",";
        newline(out, depth + 1);
        (*e)[i].write(out, depth + 1);
      }
      if (!e->empty()) newline(out, depth);
      out += ']';
    } else {
      const Members& m = std::get<Members>(v_);
      out += '{';
      for (size_t i = 0; i < m.size(); ++i) {
        out += i == 0 ? "" : ",";
        newline(out, depth + 1);
        quote(out, m[i].first);
        out += ": ";
        m[i].second.write(out, depth + 1);
      }
      if (!m.empty()) newline(out, depth);
      out += '}';
    }
  }

  std::variant<double, bool, std::string, Elements, Members> v_;
};

/// The context every report opens with: which bench, how it was built, the
/// cores present (thread scaling is bounded by them), the CPU features and
/// the kernel variants the dispatcher selected. Add report-specific fields
/// with set().
inline Json context(const char* source) {
  const mp::CpuFeatures& f = mp::cpu_features();
  return Json::object()
      .set("source", source)
      .set("library_build_type", kBuildType)
      .set("hardware_concurrency", std::thread::hardware_concurrency())
      .set("cpu_features", Json::object()
                               .set("bmi2", f.bmi2)
                               .set("adx", f.adx)
                               .set("avx2", f.avx2)
                               .set("sha", f.sha)
                               .set("avx512ifma", f.avx512ifma))
      .set("mont_kernel", mp::mont_kernel_name())
      .set("lane_kernel", mp::lane_kernel_name())
      .set("chacha_kernel", cipher::chacha20_kernel_name())
      .set("sha256_kernel", hash::sha256_kernel_name());
}

/// Exits with status 1 when `output` (a report path or flag, nullptr when
/// none was asked for) is set in a build without NDEBUG: numbers from an
/// unoptimized build are never published. Call before any work.
inline void refuse_unoptimized_output(const char* output) {
  if (output == nullptr || std::string_view(kBuildType) == "release") return;
  std::fprintf(stderr,
               "error: this bench was built without NDEBUG; refusing to "
               "write %s from a non-optimized build\n",
               output);
  std::exit(1);
}

/// The value of `arg` if it is `prefix` followed by a value, else nullptr.
inline const char* flag_value(const char* arg, std::string_view prefix) {
  std::string_view a(arg);
  return a.substr(0, prefix.size()) == prefix ? arg + prefix.size() : nullptr;
}

/// The PATH of `--json-out=PATH`, the one argument a plain bench takes
/// (nullptr when absent). Any other argument is a usage error (exit 2).
inline const char* json_out_arg(int argc, char** argv) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    path = flag_value(argv[i], "--json-out=");
    if (path == nullptr) {
      std::fprintf(stderr, "usage: %s [--json-out=PATH]\n", argv[0]);
      std::exit(2);
    }
  }
  refuse_unoptimized_output(path);
  return path;
}

/// Writes `text` and a newline to `path`; false (after a message) on error.
inline bool write_text(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return false;
  }
  bool ok = std::fputs(text.c_str(), f) >= 0 && std::fputc('\n', f) != EOF;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path);
  return ok;
}

inline bool write_report(const char* path, const Json& report) {
  if (!write_text(path, report.dump())) return false;
  std::printf("wrote %s\n", path);
  return true;
}

/// google-benchmark's JSON file reporter with the context block above in
/// place of the library's, plus the host fields google-benchmark measures.
class ReportJsonReporter : public benchmark::JSONReporter {
 public:
  explicit ReportJsonReporter(const char* source) : source_(source) {}

  bool ReportContext(const Context& context) override {
    char date[64];
    std::time_t now = std::time(nullptr);
    std::tm tm_buf{};
    localtime_r(&now, &tm_buf);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S%z", &tm_buf);
    const benchmark::CPUInfo& cpu = context.cpu_info;
    Json load_avg = Json::array();
    for (float l : cpu.load_avg) load_avg.push(l);
    Json ctx = bench::context(source_)
                   .set("date", date)
                   .set("host_name", context.sys_info.name)
                   .set("num_cpus", cpu.num_cpus)
                   .set("mhz_per_cpu", std::llround(cpu.cycles_per_second /
                                                    1e6))
                   .set("load_avg", std::move(load_avg));
    GetOutputStream() << "{\n  \"context\": " << ctx.dump(1)
                      << ",\n  \"benchmarks\": [\n";
    return true;
  }

 private:
  const char* source_;
};

/// The whole main() of a google-benchmark bench. With --benchmark_out the
/// file is written through ReportJsonReporter (the library still opens it
/// and owns the stream); the flag is detected before Initialize consumes
/// it, since the library rejects a file reporter without it.
inline int run_google_benchmarks(int argc, char** argv, const char* source) {
  const char* out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (flag_value(argv[i], "--benchmark_out=") != nullptr) out = argv[i];
  }
  refuse_unoptimized_output(out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (out != nullptr) {
    ReportJsonReporter file_reporter(source);
    benchmark::RunSpecifiedBenchmarks(nullptr, &file_reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace hcpp::bench

// Shared declarations of the tmgbench tool: seeded workload generation,
// the brute-force reference, and the traced per-layer run. The tool links
// tmg's static libraries and calls only their public headers; nothing here
// is compiled into tmg itself.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace tmgbench {

namespace fs = std::filesystem;

/// Writes the inputs of `workload` for `seed` under `out`:
///   files/*.mc         the analysed corpus (serve: the warm hit corpus)
///   hits.jsonl, misses.jsonl
///                      serve only: one raw wire request per line; each
///                      miss is a seeded constant edit of a paper example,
///                      one distinct source per cache miss
///   manifest.json      file list, tmg options, closed-form expectations
/// `repo` is the checkout root (paper examples are read from
/// repo/examples). Returns false with a message on stderr on failure.
bool generate(const std::string& workload, std::uint64_t seed,
              const fs::path& repo, const fs::path& out);

/// Computes reference.json for a generated input directory: per file and
/// function, the expected (feasible, infeasible, bcet, wcet) of every
/// segment from brute-force interpretation over the whole `__input`
/// domain, or closed-form counts for deep-struct. The analysis under test
/// (BMC, slicing, sessions, the cache) is never consulted.
bool reference(const fs::path& dir);

/// Traced per-layer run over a generated input directory: spans around
/// calls into each module's public functions, counts from their result
/// types. Prints one JSON object of per-layer metrics on stdout.
bool traced_run(const fs::path& dir, double seconds);

// ------------------------------------------------------------- utilities

std::string read_file(const fs::path& p);
bool write_file(const fs::path& p, const std::string& data);

/// Deterministic 64-bit mix (splitmix64 finaliser).
std::uint64_t mix(std::uint64_t x);

/// Tmg options of one workload, as the manifest records them.
struct Options {
  std::uint64_t bound = 4;
  std::size_t max_paths = 64;
  bool bmc = true;
  bool opt = false;
};

/// A parsed manifest.json.
struct Manifest {
  std::string workload;
  Options options;
  std::vector<std::string> files;
  /// serve-mixed: miss source names and the paper example each edits.
  std::vector<std::string> misses;
  std::vector<std::string> miss_base;
  /// deep-struct: closed-form (function paths, segments) per file and
  /// function name.
  std::map<std::string, std::map<std::string, std::pair<std::uint64_t,
                                                        std::uint64_t>>>
      closed_form;
};

bool read_manifest(const fs::path& dir, Manifest& m);

}  // namespace tmgbench

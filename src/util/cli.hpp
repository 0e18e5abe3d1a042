// Small command-line parser for the example and bench executables.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Unknown
// arguments are an error (with help text) so typos never silently run a
// default experiment. No positional arguments -- every input is named,
// which keeps invocations self-documenting in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gee::util {

/// Split a comma-separated list into its non-empty items (the string
/// analogue of ArgParser::get_int_list, for name-valued sweeps like
/// bench_stream --strategies).
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

/// Parse a --shards value: a base-10 integer in [1, max_shards] with no
/// trailing junk ("4" yes, "4x"/""/"-1"/"1e2" no). nullopt on anything
/// else, so callers reject bad input with a message instead of clamping
/// silently. `max_shards` defaults to shard::ShardMap's bound (256).
[[nodiscard]] std::optional<int> parse_shard_count(const std::string& text,
                                                   int max_shards = 256);

/// Parse an --arrival-rate value: a strictly positive finite double with
/// no trailing junk ("1500", "2.5e3"). nullopt otherwise (zero, negative,
/// inf/nan, or non-numeric text).
[[nodiscard]] std::optional<double> parse_arrival_rate(const std::string& text);

/// Parse a --socket value: a non-empty filesystem path short enough for
/// sockaddr_un's sun_path (net::kMaxSocketPathLen, 107 bytes). nullopt
/// otherwise, so callers report the limit instead of truncating a path.
[[nodiscard]] std::optional<std::string> parse_socket_path(
    const std::string& text);

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Declare options. `help` is shown by --help; `default_value` is used by
  /// the typed getters when the option was not supplied.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = {});
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false (after printing usage) on error or --help.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  /// Comma-separated integer list, e.g. --batch-sizes 1,100,10000.
  /// Empty value -> empty list; malformed entries throw like get_int.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::vector<std::pair<std::string, Spec>> specs_;  // declaration order
  std::map<std::string, std::string> values_;

  [[nodiscard]] const Spec* find(const std::string& name) const;
};

}  // namespace gee::util

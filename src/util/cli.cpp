#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace gee::util {

std::optional<int> parse_shard_count(const std::string& text, int max_shards) {
  if (text.empty()) return std::nullopt;
  std::size_t consumed = 0;
  long value = 0;
  try {
    value = std::stol(text, &consumed, /*base=*/10);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != text.size()) return std::nullopt;  // "4x", "1e2"
  if (value < 1 || value > max_shards) return std::nullopt;
  return static_cast<int>(value);
}

std::optional<double> parse_arrival_rate(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != text.size()) return std::nullopt;
  if (!(value > 0) || !std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<std::string> parse_socket_path(const std::string& text) {
  // 107 = sockaddr_un::sun_path (108 on Linux) minus the trailing NUL;
  // mirrored from net::kMaxSocketPathLen, which util cannot include
  // (util sits below net in the layer order).
  constexpr std::size_t kMaxSocketPathLen = 107;
  if (text.empty() || text.size() > kMaxSocketPathLen) return std::nullopt;
  return text;
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  specs_.emplace_back(name, Spec{help, default_value, /*is_flag=*/false});
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_.emplace_back(name, Spec{help, "", /*is_flag=*/true});
}

const ArgParser::Spec* ArgParser::find(const std::string& name) const {
  for (const auto& [n, spec] : specs_) {
    if (n == name) return &spec;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage().c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Spec* spec = find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown option '--%s'\n%s", name.c_str(),
                   usage().c_str());
      return false;
    }
    if (spec->is_flag) {
      if (has_value) {
        std::fprintf(stderr, "flag '--%s' does not take a value\n", name.c_str());
        return false;
      }
      values_[name] = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option '--%s' requires a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    values_[name] = value;
  }
  return true;
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string ArgParser::get(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second;
  const Spec* spec = find(name);
  if (spec == nullptr) throw std::invalid_argument("undeclared option: " + name);
  return spec->default_value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::stoll(get(name));
}

double ArgParser::get_double(const std::string& name) const {
  return std::stod(get(name));
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::vector<std::int64_t> ArgParser::get_int_list(
    const std::string& name) const {
  std::vector<std::int64_t> values;
  for (const auto& item : split_csv(get(name))) {
    values.push_back(std::stoll(item));
  }
  return values;
}

bool ArgParser::get_flag(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second == "1";
  return false;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " -- " << description_ << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.is_flag) {
      os << " <value>";
      if (!spec.default_value.empty()) os << " (default: " << spec.default_value << ")";
    }
    os << "\n      " << spec.help << "\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

}  // namespace gee::util

#include "util/args.hpp"

#include <charconv>
#include <sstream>

namespace a4nn::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, std::string fallback,
                           std::string help) {
  if (specs_.count(name)) throw ArgError("duplicate option --" + name);
  Spec spec;
  spec.value = fallback;
  spec.fallback = std::move(fallback);
  spec.help = std::move(help);
  specs_[name] = std::move(spec);
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, std::string help) {
  if (specs_.count(name)) throw ArgError("duplicate option --" + name);
  Spec spec;
  spec.value = "false";
  spec.fallback = "false";
  spec.help = std::move(help);
  spec.is_flag = true;
  specs_[name] = std::move(spec);
  order_.push_back(name);
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) throw ArgError("unknown option --" + name);
    Spec& spec = it->second;
    if (spec.is_flag) {
      if (has_inline) throw ArgError("flag --" + name + " takes no value");
      spec.value = "true";
    } else if (has_inline) {
      spec.value = std::move(inline_value);
    } else {
      if (i + 1 >= argc) throw ArgError("option --" + name + " needs a value");
      spec.value = argv[++i];
    }
    spec.set = true;
  }
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << "usage: " << program_ << " [options]\n" << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    out << "  --" << name;
    if (!spec.is_flag) out << " <value>";
    out << "\n      " << spec.help;
    if (!spec.is_flag) out << " (default: " << spec.fallback << ")";
    out << "\n";
  }
  return out.str();
}

const std::string& ArgParser::get(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) throw ArgError("undeclared option --" + name);
  return it->second.value;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& s = get(name);
  double d = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), d);
  if (ec != std::errc() || ptr != s.data() + s.size())
    throw ArgError("option --" + name + ": '" + s + "' is not a number");
  return d;
}

std::size_t ArgParser::get_size(const std::string& name) const {
  const std::string& s = get(name);
  std::size_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size())
    throw ArgError("option --" + name + ": '" + s +
                   "' is not a non-negative integer");
  return v;
}

Endpoint ArgParser::get_endpoint(const std::string& name) const {
  const std::string& s = get(name);
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size())
    throw ArgError("option --" + name + ": '" + s + "' is not host:port");
  const char* end = s.data() + s.size();
  unsigned long port = 0;
  auto [ptr, ec] = std::from_chars(s.data() + colon + 1, end, port);
  if (ec != std::errc() || ptr != end || port > 65535)
    throw ArgError("option --" + name + ": port in '" + s +
                   "' is not an integer in [0, 65535]");
  return Endpoint{s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

bool ArgParser::get_flag(const std::string& name) const {
  return get(name) == "true";
}

}  // namespace a4nn::util

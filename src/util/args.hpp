// Tiny declarative command-line parser for the driver binaries: the paper
// configures the NAS "through command-line arguments to the driver script"
// (§2.6.1), so the C++ driver gets the same interface.
//
//   ArgParser args("a4nn_run", "Run the A4NN workflow");
//   args.add_flag("verbose", "enable info logging");
//   args.add_option("population", "10", "size of starting population");
//   args.parse(argc, argv);           // throws ArgError on bad input
//   std::size_t pop = args.get_size("population");
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace a4nn::util {

class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A host:port network address given on the command line.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// --name <value>; `fallback` doubles as the displayed default.
  void add_option(const std::string& name, std::string fallback,
                  std::string help);
  /// --name (boolean, default false).
  void add_flag(const std::string& name, std::string help);

  /// Parse argv; supports --name value, --name=value, and --help (which
  /// sets help_requested()). Unknown options and missing values throw.
  void parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }
  std::string usage() const;

  const std::string& get(const std::string& name) const;
  double get_double(const std::string& name) const;
  /// A non-negative decimal integer: signs, fractions, exponents, nan and
  /// values beyond size_t are ArgError, never truncated.
  std::size_t get_size(const std::string& name) const;
  /// host:port with a non-empty host and a decimal port <= 65535 (0 is
  /// allowed: the caller decides whether it means "ephemeral").
  Endpoint get_endpoint(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  /// Positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Spec {
    std::string value;
    std::string fallback;
    std::string help;
    bool is_flag = false;
    bool set = false;
  };
  std::string program_, description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;  // declaration order for usage()
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace a4nn::util

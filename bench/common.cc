#include "common.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

namespace netclients::bench {

namespace {

double env_denominator(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  const double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

}  // namespace

double scale_denominator(double fallback) {
  return env_denominator("REPRO_SCALE", fallback);
}

double ditl_sample_denominator() {
  return env_denominator("REPRO_DITL_SAMPLE", 64);
}

double flag_value(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string flag_string(int argc, char** argv, const char* name,
                        const std::string& fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

std::string out_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name;
}

double truth_coverage(const sim::World& world,
                      const core::CampaignResult& result) {
  double covered = 0, total = 0;
  for (const sim::Slash24Block& block : world.blocks()) {
    if (block.clients() <= 0) continue;
    total += block.clients();
    if (result.active.covers(net::Prefix::from_slash24_index(block.index))) {
      covered += block.clients();
    }
  }
  return total > 0 ? 100.0 * covered / total : 0;
}

}  // namespace netclients::bench

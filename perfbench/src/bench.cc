#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kWall:
      return "wall";
    case Kind::kSim:
      return "simulated";
    case Kind::kCount:
      break;
  }
  return "count";
}

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Fingerprint::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
}

uint64_t DigestMetrics(const std::vector<Metric>& metrics) {
  Fingerprint fp;
  for (const Metric& m : metrics) {
    if (m.kind == Kind::kWall || m.from_trace) continue;
    fp.Add(m.name);
    fp.Add(static_cast<uint64_t>(m.present));
    fp.Add(m.value);
  }
  return fp.value();
}

void Checks::Fail(const std::string& what) {
  ++count_;
  if (samples_.size() < 10) samples_.push_back(what);
}

const Metric* FindMetric(const Round& round, const std::string& name) {
  for (const Metric& m : round.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

}  // namespace perfbench

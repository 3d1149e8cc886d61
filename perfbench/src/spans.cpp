#include "spans.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

namespace perfbench {

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::open(const char* name, std::uint64_t op) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, parent, op});
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  assert(!open_.empty() && open_.back() == index);
  spans_[static_cast<std::size_t>(index)].end = now_ns();
  open_.pop_back();
}

std::int32_t SpanRecorder::add(const char* name, Nanos start, Nanos end,
                               std::int32_t parent, std::uint64_t op) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, start, end, parent, op});
  return index;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Nanos origin = spans_.empty() ? 0 : spans_.front().start;
  out << "index\top\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.op << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start - origin << '\t' << s.end - origin << '\n';
  }
  return static_cast<bool>(out);
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  if (dot == nullptr) return "bench";
  return std::string(name, static_cast<std::size_t>(dot - name));
}

std::vector<Nanos> self_times(std::span<const Span> spans) {
  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<Nanos, Nanos>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const Nanos lo = std::max(s.start, p.start);
    const Nanos hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<Nanos> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    Nanos union_ns = 0;
    Nanos reach = spans[i].start;  // end of the union so far
    for (const auto& [lo, hi] : intervals) {
      if (hi <= reach) continue;
      union_ns += hi - std::max(lo, reach);
      reach = hi;
    }
    self[i] = std::max<Nanos>(0, spans[i].end - spans[i].start) - union_ns;
  }
  return self;
}

LayerRollup rollup(std::span<const Span> spans) {
  LayerRollup result;
  const std::vector<Nanos> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    result.self_ns[layer_of(spans[i].name)] += self[i];
    if (spans[i].parent < 0) {
      ++result.roots;
      result.root_ns += spans[i].end - spans[i].start;
    }
  }
  return result;
}

}  // namespace perfbench

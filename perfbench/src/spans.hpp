#pragma once
// In-memory span recorder for the traced run, and the self-time rollup.
//
// A span is one call into a layer: a name of the form "<layer>.<what>"
// ("io.parse", "core.engine"), start and end on the steady clock, the span
// that caused it and the benchmark op it belongs to. Root spans are the ops
// themselves and are named "op". Spans stay in memory while the run is
// timed and are written out once it ends.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (children clipped to the parent, overlaps counted
// once). When every child lies inside its parent, as scoped spans do, the
// self times of one op's spans add up to the op's duration exactly, which
// is what lets the per-layer rollup account for the end-to-end time.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Steady-clock nanoseconds.
[[nodiscard]] Nanos now_ns();

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>" or "op"
  Nanos start = 0;
  Nanos end = 0;
  std::int32_t parent = -1;  ///< index into the recorder's spans; -1: root
  std::uint64_t op = 0;
};

class SpanRecorder {
 public:
  /// Open a span whose parent is the innermost span still open.
  std::int32_t open(const char* name, std::uint64_t op);
  /// Close `index`, which must be the innermost open span.
  void close(std::int32_t index);
  /// Record an already-closed span with an explicit parent.
  std::int32_t add(const char* name, Nanos start, Nanos end,
                   std::int32_t parent, std::uint64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Tab-separated: index, op, parent, name, start_ns, end_ns. Times are
  /// relative to the first span's start.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; does nothing on a null recorder, so untraced runs share the
/// traced code path at the cost of one pointer test per scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t op)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1 : recorder->open(name, op)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// The layer a span belongs to: its name up to the first '.'; root spans
/// ("op", no dot) belong to the benchmark itself, "bench".
[[nodiscard]] std::string layer_of(const char* name);

/// Self time of every span, parallel to `spans`. Parents must precede
/// their children (the recorder guarantees it).
[[nodiscard]] std::vector<Nanos> self_times(std::span<const Span> spans);

struct LayerRollup {
  std::map<std::string, Nanos> self_ns;  ///< summed self time per layer
  std::size_t roots = 0;                 ///< number of op spans
  Nanos root_ns = 0;                     ///< summed op durations
};

/// Self time per layer over all spans. The per-layer totals sum to
/// `root_ns`.
[[nodiscard]] LayerRollup rollup(std::span<const Span> spans);

}  // namespace perfbench

#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "measure.h"

namespace perfbench {

std::int32_t Lane::begin(std::string_view name, std::int32_t parent,
                         std::uint64_t trace_id) {
  const std::int64_t t = now_ns();
  return add(name, t, t, parent, trace_id);
}

void Lane::end(std::int32_t index) { at(index).end_ns = now_ns(); }

std::int32_t Lane::add(std::string_view name, std::int64_t begin_ns,
                       std::int64_t end_ns, std::int32_t parent,
                       std::uint64_t trace_id) {
  spans_.push_back(Span{name, begin_ns, end_ns, parent, trace_id});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Each span's children, clipped to it: [begin, end) pairs.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(child.parent)];
    const std::int64_t begin =
        std::clamp(child.begin_ns, parent.begin_ns, parent.end_ns);
    const std::int64_t end = std::clamp(child.end_ns, begin, parent.end_ns);
    covered[static_cast<std::size_t>(child.parent)].emplace_back(begin, end);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    std::int64_t cover = 0;
    std::int64_t cursor = spans[i].begin_ns;
    for (const auto& [begin, end] : parts) {
      cover += std::max<std::int64_t>(0, end - std::max(begin, cursor));
      cursor = std::max(cursor, end);
    }
    self[i] = spans[i].duration_ns() - cover;
  }
  return self;
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      if (span.name == name) out.push_back(ns_to_us(span.duration_ns()));
    }
  }
  return out;
}

std::vector<double> Tracer::self_us(std::string_view name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_) {
    const std::vector<std::int64_t> self = self_times_ns(lane.spans());
    for (std::size_t i = 0; i < self.size(); ++i) {
      if (lane.spans()[i].name == name) out.push_back(ns_to_us(self[i]));
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t count = 0;
  for (const Lane& lane : lanes_) count += lane.spans().size();
  return count;
}

namespace {

/// Root spans per lane the trace file holds, with all their descendants;
/// bounds the file.
constexpr std::size_t kMaxTraceRoots = 4000;

struct Writer {
  std::FILE* file;
  std::int64_t epoch_ns;
  bool first = true;

  void event(const char* phase, std::string_view name, int tid,
             std::int64_t ts_ns, std::uint64_t trace_id) {
    std::fprintf(file,
                 "%s\n{\"name\":\"%.*s\",\"ph\":\"%s\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f",
                 first ? "" : ",", static_cast<int>(name.size()), name.data(),
                 phase, tid, static_cast<double>(ts_ns - epoch_ns) * 1e-3);
    if (trace_id != 0 && phase[0] == 'B') {
      std::fprintf(file, ",\"args\":{\"trace_id\":\"%llu\"}",
                   static_cast<unsigned long long>(trace_id));
    }
    std::fputc('}', file);
    first = false;
  }

  void thread_name(int tid, const std::string& name) {
    std::fprintf(file,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, name.c_str());
    first = false;
  }
};

/// Emits `index` and its subtree as nested B/E pairs.  Children are clamped
/// into their parent and after their previous sibling, so the pairs nest
/// and timestamps never go backwards even if a recorded child strayed.
void emit_subtree(Writer& out, int tid, const std::vector<Span>& spans,
                  const std::vector<std::vector<std::int32_t>>& children,
                  std::int32_t index, std::int64_t begin_ns,
                  std::int64_t end_ns) {
  const Span& span = spans[static_cast<std::size_t>(index)];
  out.event("B", span.name, tid, begin_ns, span.trace_id);
  std::int64_t cursor = begin_ns;
  for (const std::int32_t child : children[static_cast<std::size_t>(index)]) {
    const Span& c = spans[static_cast<std::size_t>(child)];
    const std::int64_t b = std::clamp(c.begin_ns, cursor, end_ns);
    const std::int64_t e = std::clamp(c.end_ns, b, end_ns);
    emit_subtree(out, tid, spans, children, child, b, e);
    cursor = e;
  }
  out.event("E", span.name, tid, end_ns, 0);
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::int64_t epoch = std::numeric_limits<std::int64_t>::max();
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      epoch = std::min(epoch, span.begin_ns);
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write trace " + path);
  Writer out{file, epoch};
  std::fputs("{\"traceEvents\":[", file);
  int next_tid = 1;
  for (const Lane& lane : lanes_) {
    const std::vector<Span>& spans = lane.spans();
    std::vector<std::vector<std::int32_t>> children(spans.size());
    std::vector<std::int32_t> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto index = static_cast<std::int32_t>(i);
      if (spans[i].parent < 0) {
        roots.push_back(index);
      } else {
        children[static_cast<std::size_t>(spans[i].parent)].push_back(index);
      }
    }
    const auto by_begin = [&spans](std::int32_t a, std::int32_t b) {
      return spans[static_cast<std::size_t>(a)].begin_ns <
             spans[static_cast<std::size_t>(b)].begin_ns;
    };
    for (auto& list : children) {
      std::stable_sort(list.begin(), list.end(), by_begin);
    }
    std::stable_sort(roots.begin(), roots.end(), by_begin);
    if (roots.size() > kMaxTraceRoots) roots.resize(kMaxTraceRoots);

    // Greedy interval colouring: each root goes to the first slot free at
    // its begin time.  Slots become tids.
    std::vector<std::vector<std::int32_t>> slots;
    std::vector<std::int64_t> slot_end;
    for (const std::int32_t root : roots) {
      const Span& span = spans[static_cast<std::size_t>(root)];
      std::size_t slot = 0;
      while (slot < slots.size() && slot_end[slot] > span.begin_ns) ++slot;
      if (slot == slots.size()) {
        slots.emplace_back();
        slot_end.push_back(0);
      }
      slots[slot].push_back(root);
      slot_end[slot] = span.end_ns;
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const int tid = next_tid++;
      out.thread_name(tid, lane.name() + "/" + std::to_string(s));
      for (const std::int32_t root : slots[s]) {
        const Span& span = spans[static_cast<std::size_t>(root)];
        emit_subtree(out, tid, spans, children, root, span.begin_ns,
                     span.end_ns);
      }
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", file);
  if (std::fclose(file) != 0) {
    throw std::runtime_error("cannot write trace " + path);
  }
}

}  // namespace perfbench

#include "trace.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* layer_name(layer l) {
  switch (l) {
    case layer::trial: return "sim.trial";
    case layer::excitation: return "reader.excitation";
    case layer::channel_forward: return "channel.forward";
    case layer::wake: return "tag.wake";
    case layer::modulate: return "tag.modulate";
    case layer::impair: return "impair";
    case layer::channel_backscatter: return "channel.backscatter";
    case layer::awgn: return "channel.awgn";
    case layer::packet: return "reader.packet";
    case layer::receive_chain: return "fd.receive_chain";
    case layer::decode: return "reader.decode";
    case layer::slicer: return "reader.slicer";
    case layer::oracle: return "sim.oracle";
  }
  return "unknown";
}

std::size_t span_log::open(layer name, std::uint64_t op) {
  span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void span_log::close(std::size_t index) {
  const std::uint64_t t = now_ns();
  while (!open_.empty() && open_.back() >= index) {
    spans_[open_.back()].end_ns = t;
    open_.pop_back();
  }
}

span_log& tracer::local() {
  const std::thread::id id = std::this_thread::get_id();
  std::lock_guard lock(mutex_);
  auto it = by_thread_.find(id);
  if (it == by_thread_.end()) {
    logs_.emplace_back();
    it = by_thread_.emplace(id, &logs_.back()).first;
  }
  return *it->second;
}

std::vector<const span_log*> tracer::logs() const {
  std::lock_guard lock(mutex_);
  std::vector<const span_log*> out;
  for (const span_log& log : logs_) out.push_back(&log);
  return out;
}

bool tracer::write_csv(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs(header.c_str(), f);
  std::fputs("thread,op,name,parent,start_ns,end_ns\n", f);
  std::size_t thread = 0;
  for (const span_log* log : logs()) {
    for (const span& s : log->spans())
      std::fprintf(f, "%zu,%llu,%s,%d,%llu,%llu\n", thread,
                   static_cast<unsigned long long>(s.op), layer_name(s.name),
                   static_cast<int>(s.parent),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    ++thread;
  }
  return std::fclose(f) == 0;
}

void accumulate(layer_totals& t, const std::vector<span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    if (s.parent >= static_cast<std::int64_t>(i) || s.end_ns < s.start_ns)
      throw std::invalid_argument("malformed span list");
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = dur - child_ns[i];
    const auto l = static_cast<std::size_t>(s.name);
    if (s.parent < 0) {
      t.root_ns += dur;
      t.root_self_ns += self;
      ++t.roots;
    }
    t.self_ns[l] += self;
    ++t.calls[l];
    if (s.name == layer::trial) t.trial_ns.push_back(dur);
    if (s.name == layer::packet) t.packet_ns.push_back(dur);
  }
}

layer_totals summarize(const std::vector<const span_log*>& logs) {
  layer_totals t;
  for (const span_log* log : logs) accumulate(t, log->spans());
  return t;
}

}  // namespace perfbench

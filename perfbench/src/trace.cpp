#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void write_json_string(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (c == '\n') {
      out << "\\n";
    } else {
      out << c;
    }
  }
  out << '"';
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(steady_seconds()) {}

double Tracer::now() const { return steady_seconds() - origin_; }

Tracer::Scope::Scope(Tracer& tracer, std::string_view layer,
                     std::string_view name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  index_ = tracer.open(layer, name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

int Tracer::open(std::string_view layer, std::string_view name) {
  Span span;
  span.layer = std::string(layer);
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start = now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::begin_op(long op, std::string_view name) {
  if (!enabled_) return;
  op_ = op;
  open("", name);
}

void Tracer::end_op() {
  if (!enabled_ || stack_.empty()) return;
  close(stack_.front());
  stack_.clear();
  op_ = -1;
}

int Tracer::add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                    span.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, span.end);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = std::max(0.0, (span.end - span.start) - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!spans_[i].layer.empty()) out[spans_[i].layer] += self[i];
  }
  return out;
}

double Tracer::root_seconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.end - span.start;
  }
  return total;
}

double Tracer::coverage() const {
  const double roots = root_seconds();
  if (roots <= 0.0) return 1.0;
  double layers = 0.0;
  for (const auto& [layer, seconds] : layer_self_seconds()) layers += seconds;
  return layers / roots;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ',';
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":";
    write_json_string(out, span.name);
    out << ",\"cat\":";
    write_json_string(out, span.layer.empty() ? "op" : span.layer);
    out << ",\"ts\":" << span.start * 1e6
        << ",\"dur\":" << (span.end - span.start) * 1e6
        << ",\"args\":{\"op\":" << span.op << ",\"parent\":" << span.parent
        << "}}\n";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "obs/trace.h"

#include <cstdio>

#include "common/json.h"
#include "common/macros.h"

namespace hyrise_nv::obs {

namespace {

void RenderInto(const SpanNode& node, int depth, std::string& out) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%*s%-*s %10.3f ms\n", depth * 2, "",
                36 - depth * 2, node.name.c_str(), node.seconds * 1e3);
  out += buf;
  for (const auto& child : node.children) {
    RenderInto(child, depth + 1, out);
  }
}

}  // namespace

const SpanNode* SpanNode::Find(std::string_view span_name) const {
  if (name == span_name) return this;
  for (const auto& child : children) {
    if (const SpanNode* found = child.Find(span_name)) return found;
  }
  return nullptr;
}

std::string SpanNode::ToJson() const {
  std::string out = "{\"name\":\"";
  common::AppendJsonEscaped(out, name);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\",\"seconds\":%.9f", seconds);
  out += buf;
  out += ",\"children\":[";
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) out += ',';
    out += children[i].ToJson();
  }
  out += "]}";
  return out;
}

std::string SpanNode::Render() const {
  std::string out;
  RenderInto(*this, 0, out);
  return out;
}

SpanTracer::SpanTracer(std::string root_name) {
  stack_.emplace_back();
  stack_.back().node.name = std::move(root_name);
}

void SpanTracer::Begin(std::string name) {
  HYRISE_NV_CHECK(!stack_.empty(), "span tracer already finished");
  stack_.emplace_back();
  stack_.back().node.name = std::move(name);
}

double SpanTracer::End() {
  HYRISE_NV_CHECK(stack_.size() > 1, "End without matching Begin");
  Frame frame = std::move(stack_.back());
  stack_.pop_back();
  frame.node.seconds = frame.watch.ElapsedSeconds();
  stack_.back().node.children.push_back(std::move(frame.node));
  return stack_.back().node.children.back().seconds;
}

void SpanTracer::Attach(SpanNode subtree) {
  HYRISE_NV_CHECK(!stack_.empty(), "span tracer already finished");
  stack_.back().node.children.push_back(std::move(subtree));
}

SpanNode SpanTracer::Finish() {
  HYRISE_NV_CHECK(!stack_.empty(), "span tracer already finished");
  while (stack_.size() > 1) {
    End();
  }
  Frame root = std::move(stack_.back());
  stack_.pop_back();
  root.node.seconds = root.watch.ElapsedSeconds();
  return std::move(root.node);
}

}  // namespace hyrise_nv::obs

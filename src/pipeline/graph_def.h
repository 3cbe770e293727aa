// Serializable pipeline programs.
//
// A GraphDef is the declarative "Dataset view" of a pipeline (paper
// Fig. 2): a DAG (in practice a tree) of operator nodes with attributes.
// Plumber's contract is that every trace is a valid program that can be
// rewritten and re-instantiated, so GraphDef round-trips through a text
// format and supports the rewrite primitives from paper §B: get/set a
// performance parameter and insert a node after a selected node.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "src/util/status.h"

namespace plumber {

class AttrValue {
 public:
  AttrValue() : value_(int64_t{0}) {}
  AttrValue(int64_t v) : value_(v) {}
  AttrValue(int v) : value_(static_cast<int64_t>(v)) {}
  AttrValue(double v) : value_(v) {}
  AttrValue(bool v) : value_(v) {}
  AttrValue(std::string v) : value_(std::move(v)) {}
  AttrValue(const char* v) : value_(std::string(v)) {}

  bool is_int() const { return std::holds_alternative<int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }

  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0) const;
  bool AsBool(bool fallback = false) const;
  std::string AsString(const std::string& fallback = "") const;

  std::string Serialize() const;
  static StatusOr<AttrValue> Parse(const std::string& text);

 private:
  std::variant<int64_t, double, bool, std::string> value_;
};

struct NodeDef {
  std::string name;                 // unique within the graph
  std::string op;                   // operator kind, e.g. "parallel_map"
  std::vector<std::string> inputs;  // child node names
  std::map<std::string, AttrValue> attrs;

  bool HasAttr(const std::string& key) const { return attrs.count(key) > 0; }
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  double GetDouble(const std::string& key, double fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
};

class GraphDef {
 public:
  // Nodes are stored in insertion order; instantiation resolves inputs
  // by name, so order is not semantically significant.
  Status AddNode(NodeDef node);
  const NodeDef* FindNode(const std::string& name) const;
  NodeDef* MutableNode(const std::string& name);

  void SetOutput(std::string name) { output_ = std::move(name); }
  const std::string& output() const { return output_; }

  const std::vector<NodeDef>& nodes() const { return nodes_; }
  std::vector<NodeDef>& mutable_nodes() { return nodes_; }

  // Names of nodes that list `name` as an input.
  std::vector<std::string> Consumers(const std::string& name) const;

  // Rewrite primitive: inserts `node` between `after` and its consumers
  // (node.inputs is set to {after}; consumers and/or the graph output
  // are redirected to `node`).
  Status InsertAfter(const std::string& after, NodeDef node);

  // Removes a single-input pass-through node, reconnecting consumers to
  // its input. Fails for multi-input nodes or sources.
  Status RemoveNode(const std::string& name);

  // Topological order from sources to the output (children first).
  StatusOr<std::vector<std::string>> TopologicalOrder() const;

  // Validates name uniqueness, input resolution, output presence, and
  // acyclicity.
  Status Validate() const;

  std::string Serialize() const;
  static StatusOr<GraphDef> Parse(const std::string& text);

  // Returns a unique name with the given prefix.
  std::string UniqueName(const std::string& prefix) const;

 private:
  std::vector<NodeDef> nodes_;
  std::string output_;
};

}  // namespace plumber

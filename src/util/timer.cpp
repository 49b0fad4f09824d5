#include "util/timer.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace rp {

void StageTimes::add(const std::string& stage, double sec) {
  for (auto& [name, t] : stages_) {
    if (name == stage) {
      t += sec;
      return;
    }
  }
  stages_.emplace_back(stage, sec);
}

double StageTimes::get(const std::string& stage) const {
  for (const auto& [name, t] : stages_) {
    if (name == stage) return t;
  }
  return 0.0;
}

double StageTimes::total() const {
  double sum = 0.0;
  for (const auto& [name, t] : stages_) {
    if (name.find('/') == std::string::npos) sum += t;
  }
  return sum;
}

StageTimes StageTimes::since(const StageTimes& before, const std::string& prefix) const {
  const std::string head = prefix.empty() ? std::string() : prefix + "/";
  StageTimes out;
  for (const auto& [name, t] : stages_) {
    if (name.compare(0, head.size(), head) != 0) continue;
    const double grew = t - before.get(name);
    if (grew > 0.0) out.add(name.substr(head.size()), grew);
  }
  return out;
}

namespace {

struct StageNode {
  std::string name;  ///< Leaf component of the path.
  double sec = 0.0;
  bool explicit_entry = false;  ///< false: synthesized parent (sec = Σ children).
  std::vector<int> children;
};

/// Find-or-create the tree node for `path` (building implicit ancestors).
/// `cur` < 0 means the sibling list is `roots`; indices stay valid across
/// nodes.push_back (no pointers into the vector are held).
int node_for(std::vector<StageNode>& nodes, std::vector<int>& roots,
             const std::string& path) {
  int cur = -1;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::string comp =
        path.substr(start, slash == std::string::npos ? std::string::npos : slash - start);
    const std::vector<int>& siblings =
        cur < 0 ? roots : nodes[static_cast<std::size_t>(cur)].children;
    int found = -1;
    for (const int c : siblings) {
      if (nodes[static_cast<std::size_t>(c)].name == comp) {
        found = c;
        break;
      }
    }
    if (found < 0) {
      found = static_cast<int>(nodes.size());
      nodes.push_back(StageNode{comp, 0.0, false, {}});
      if (cur < 0) roots.push_back(found);
      else nodes[static_cast<std::size_t>(cur)].children.push_back(found);
    }
    cur = found;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return cur;
}

void render(const std::vector<StageNode>& nodes, const std::vector<int>& ids, int depth,
            std::ostringstream& os) {
  for (const int id : ids) {
    const StageNode& n = nodes[static_cast<std::size_t>(id)];
    const int pad = std::max(1, 22 - 2 * depth - static_cast<int>(n.name.size()));
    os << std::string(static_cast<std::size_t>(2 * depth), ' ') << n.name
       << std::string(static_cast<std::size_t>(pad), ' ');
    char buf[32];
    std::snprintf(buf, sizeof buf, "%8.2fs", n.sec);
    os << buf << "\n";
    render(nodes, n.children, depth + 1, os);
  }
}

/// Fill in synthesized parents bottom-up with the sum of their children.
double fill_implicit(std::vector<StageNode>& nodes, int id) {
  StageNode& n = nodes[static_cast<std::size_t>(id)];
  double child_sum = 0.0;
  for (const int c : n.children) child_sum += fill_implicit(nodes, c);
  if (!n.explicit_entry) n.sec = child_sum;
  return n.sec;
}

}  // namespace

std::string StageTimes::report() const {
  std::vector<StageNode> nodes;
  std::vector<int> roots;
  for (const auto& [path, t] : stages_) {
    const int id = node_for(nodes, roots, path);
    nodes[static_cast<std::size_t>(id)].sec += t;
    nodes[static_cast<std::size_t>(id)].explicit_entry = true;
  }
  for (const int r : roots) fill_implicit(nodes, r);
  std::ostringstream os;
  render(nodes, roots, 0, os);
  char buf[48];
  std::snprintf(buf, sizeof buf, "total                 %8.2fs", total());
  os << buf;
  return os.str();
}

std::string StageTimes::report_flat() const {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed;
  for (const auto& [name, t] : stages_) {
    if (name.find('/') == std::string::npos) os << name << "=" << t << "s ";
  }
  os << "total=" << total() << "s";
  return os.str();
}

}  // namespace rp

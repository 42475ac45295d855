#include "core/choice_pricing.hpp"

#include <algorithm>

#include "netlist/assert.hpp"

namespace dagmap {

ChoicePricing::ChoicePricing(const Network& subject,
                             const ChoiceClasses& classes,
                             const std::vector<double>& label)
    : classes_(classes), label_(label) {
  DAGMAP_ASSERT_MSG(classes.size() == subject.size(),
                    "choice classes not finalized to the subject");
  DAGMAP_ASSERT_MSG(label.size() == subject.size(),
                    "label array not sized to the subject");
  best_.resize(subject.size());
  for (NodeId n = 0; n < best_.size(); ++n) best_[n] = n;
}

void ChoicePricing::on_labeled(NodeId n) {
  if (!classes_.is_class_anchor(n)) return;
  std::span<const NodeId> mem = classes_.members(n);
  // Plain < with ascending member order: the smallest-id member wins
  // ties, independent of thread count and schedule.
  NodeId winner = mem.front();
  for (NodeId m : mem)
    if (label_[m] < label_[winner]) winner = m;
  for (NodeId m : mem) best_[m] = winner;
}

void ChoicePricing::rewrite(std::span<NodeId> pins, NodeId reader) const {
  for (NodeId& leaf : pins) leaf = price_node(reader, leaf);
}

Network ChoicePricing::redirect_endpoints(const Network& subject) const {
  Network out = subject;
  for (std::size_t i = 0; i < subject.outputs().size(); ++i) {
    NodeId d = subject.outputs()[i].node;
    if (best_[d] != d) out.redirect_output(i, best_[d]);
  }
  for (NodeId l : subject.latches()) {
    NodeId d = subject.fanins(l)[0];
    if (best_[d] != d) out.redirect_latch_input(l, best_[d]);
  }
  return out;
}

std::size_t ChoicePricing::num_wins() const {
  // A class "wins" when the fold picked a variant other than the anchor
  // consumers structurally reference — the mapping downstream readers
  // would have gotten without choices present.
  std::size_t wins = 0;
  for (NodeId n = 0; n < best_.size(); ++n)
    if (classes_.is_class_anchor(n) && best_[n] != n) ++wins;
  return wins;
}

std::vector<std::vector<NodeId>> choice_wavefronts(
    const Network& subject, const ChoiceClasses& classes) {
  std::vector<std::uint32_t> level(subject.size(), 0);
  std::uint32_t max_level = 0;
  for (NodeId n = 0; n < subject.size(); ++n) {
    if (subject.is_source(n)) continue;
    std::uint32_t l = 0;
    for (NodeId f : subject.fanins(n)) {
      // The structural dependency always holds; beyond f's anchor the
      // reader additionally prices f's class, so it must also be
      // scheduled after the fold at the anchor.
      l = std::max(l, level[f]);
      NodeId a = classes.anchor(f);
      if (n > a && a != f) l = std::max(l, level[a]);
    }
    if (classes.is_class_anchor(n))
      for (NodeId m : classes.members(n))
        if (m != n) l = std::max(l, level[m]);
    level[n] = l + 1;
    max_level = std::max(max_level, level[n]);
  }
  std::vector<std::vector<NodeId>> waves(max_level + 1);
  for (NodeId n = 0; n < subject.size(); ++n)
    if (!subject.is_source(n)) waves[level[n]].push_back(n);
  return waves;
}

}  // namespace dagmap

/**
 * @file
 * Implementation of the kinematic tree model and its builder.
 */

#include "topology/robot_model.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace roboshape {
namespace topology {

int
RobotModel::find_link(const std::string &name) const
{
    for (std::size_t i = 0; i < links_.size(); ++i)
        if (links_[i].name == name)
            return static_cast<int>(i);
    return -1;
}

RobotModelBuilder::RobotModelBuilder(std::string robot_name)
    : name_(std::move(robot_name))
{
}

RobotModelBuilder &
RobotModelBuilder::add_link(const std::string &name,
                            const std::string &parent_name,
                            const spatial::JointModel &joint,
                            const spatial::SpatialTransform &x_tree,
                            const spatial::SpatialInertia &inertia)
{
    for (const auto &p : pending_)
        if (p.name == name)
            throw std::invalid_argument("duplicate link name: " + name);
    if (name.empty())
        throw std::invalid_argument("link name must be nonempty");
    pending_.push_back({name, parent_name, joint, x_tree, inertia});
    return *this;
}

RobotModel
RobotModelBuilder::finalize() const
{
    const std::size_t n = pending_.size();
    if (n == 0)
        throw std::invalid_argument("robot '" + name_ + "' has no links");

    // Pending indices in name order, for parent lookups (names are
    // unique: add_link rejects duplicates).
    std::vector<std::size_t> by_name(n);
    std::iota(by_name.begin(), by_name.end(), std::size_t{0});
    std::sort(by_name.begin(), by_name.end(),
              [this](std::size_t a, std::size_t b) {
                  return pending_[a].name < pending_[b].name;
              });

    // Each link's parent as a pending index; n stands for the base.
    std::vector<std::size_t> parent(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &p = pending_[i];
        if (!p.parent_name.empty()) {
            const auto it = std::lower_bound(
                by_name.begin(), by_name.end(), p.parent_name,
                [this](std::size_t k, const std::string &name) {
                    return pending_[k].name < name;
                });
            if (it == by_name.end() || pending_[*it].name != p.parent_name)
                throw std::invalid_argument("link '" + p.name +
                                            "' has unknown parent '" +
                                            p.parent_name + "'");
            parent[i] = *it;
        }
        if (p.joint.type() == spatial::JointType::kFixed) {
            throw std::invalid_argument(
                "link '" + p.name +
                "' uses a fixed joint; fold it before building "
                "(see urdf parser)");
        }
    }

    // Children of every link and of the base (n), in add order:
    // kids[first[p] .. first[p + 1]) are p's.
    std::vector<std::size_t> first(n + 2, 0);
    for (std::size_t i = 0; i < n; ++i)
        ++first[parent[i] + 1];
    for (std::size_t p = 0; p <= n; ++p)
        first[p + 1] += first[p];
    if (first[n + 1] == first[n])
        throw std::invalid_argument("robot '" + name_ +
                                    "' has no link attached to the base");
    std::vector<std::size_t> kids(n);
    {
        std::vector<std::size_t> next(first.begin(), first.end() - 1);
        for (std::size_t i = 0; i < n; ++i)
            kids[next[parent[i]]++] = i;
    }

    // Depth-first preorder from the base; detects disconnected links.
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<int> new_index(n, -1);
    std::vector<std::size_t> stack;
    const auto push_kids = [&](std::size_t p) {
        for (std::size_t k = first[p + 1]; k-- > first[p];)
            stack.push_back(kids[k]);
    };
    push_kids(n);
    while (!stack.empty()) {
        const std::size_t i = stack.back();
        stack.pop_back();
        if (new_index[i] != -1)
            throw std::invalid_argument("cycle detected at link '" +
                                        pending_[i].name + "'");
        new_index[i] = static_cast<int>(order.size());
        order.push_back(i);
        push_kids(i);
    }
    if (order.size() != n) {
        for (std::size_t i = 0; i < n; ++i)
            if (new_index[i] == -1)
                throw std::invalid_argument("link '" + pending_[i].name +
                                            "' is not connected to the base");
    }

    RobotModel model;
    model.name_ = name_;
    model.links_.resize(order.size());
    model.children_.resize(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
        const auto &p = pending_[order[k]];
        Link &l = model.links_[k];
        l.name = p.name;
        l.joint = p.joint;
        l.x_tree = p.x_tree;
        l.inertia = p.inertia;
        if (parent[order[k]] == n) {
            l.parent = kBaseParent;
            model.base_children_.push_back(static_cast<int>(k));
        } else {
            l.parent = new_index[parent[order[k]]];
            model.children_[l.parent].push_back(static_cast<int>(k));
        }
    }
    return model;
}

} // namespace topology
} // namespace roboshape

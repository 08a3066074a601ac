#include "passes/registry.h"

#include <algorithm>
#include <set>

#include "support/error.h"
#include "support/text.h"

namespace calyx::passes {

PassRegistry::PassRegistry()
{
    // Composite aliases. `default` is the standard pipeline without
    // optional optimizations; `all` additionally runs every
    // optimization pass (the old `futil -p all`).
    composites["default"] = {
        "well-formed,collapse-control,infer-latency,go-insertion,"
        "compile-control,remove-groups,dead-cell-removal",
        "Standard pipeline without optional optimizations"};
    composites["all"] = {"well-formed,pre-opt,compile,post-opt",
                         "Full pipeline including every optimization pass"};
}

PassRegistry &
PassRegistry::instance()
{
    static PassRegistry registry;
    return registry;
}

void
PassRegistry::registerPass(Entry entry)
{
    if (entries.count(entry.name))
        fatal("pass '", entry.name, "' registered twice");
    if (composites.count(entry.name))
        fatal("pass '", entry.name, "' collides with an alias");
    std::string name = entry.name;
    entries.emplace(std::move(name), std::move(entry));
}

void
PassRegistry::registerAlias(const std::string &name,
                            const std::string &expansion,
                            const std::string &description)
{
    if (entries.count(name))
        fatal("alias '", name, "' collides with a pass");
    composites[name] = {expansion, description};
}

bool
PassRegistry::hasPass(const std::string &name) const
{
    return entries.count(name) > 0;
}

bool
PassRegistry::hasAlias(const std::string &name) const
{
    if (composites.count(name))
        return true;
    for (const auto &[_, e] : entries)
        for (const auto &m : e.aliases)
            if (m.alias == name)
                return true;
    return false;
}

const PassRegistry::Entry *
PassRegistry::findPass(const std::string &name) const
{
    auto it = entries.find(name);
    return it == entries.end() ? nullptr : &it->second;
}

std::unique_ptr<Pass>
PassRegistry::create(const std::string &name) const
{
    const Entry *e = findPass(name);
    if (!e) {
        std::string hint = suggest(name);
        fatal("unknown pass '", name, "'",
              hint.empty() ? "" : " (did you mean '" + hint + "'?)",
              "; run with --list-passes for the full list");
    }
    return e->factory();
}

std::string
PassRegistry::aliasExpansion(const std::string &name) const
{
    auto it = composites.find(name);
    if (it != composites.end())
        return it->second.expansion;

    // Group alias: members sorted by (order, name) for determinism.
    std::vector<std::pair<int, std::string>> members;
    for (const auto &[pass_name, e] : entries)
        for (const auto &m : e.aliases)
            if (m.alias == name)
                members.emplace_back(m.order, pass_name);
    if (members.empty())
        fatal("unknown alias '", name, "'");
    std::sort(members.begin(), members.end());

    std::string spec;
    for (const auto &[_, pass_name] : members) {
        if (!spec.empty())
            spec += ",";
        spec += pass_name;
    }
    return spec;
}

std::vector<std::string>
PassRegistry::passNames() const
{
    std::vector<std::string> names;
    for (const auto &[name, _] : entries)
        names.push_back(name);
    return names; // std::map iteration is already sorted
}

std::vector<std::string>
PassRegistry::aliasNames() const
{
    std::set<std::string> names;
    for (const auto &[name, _] : composites)
        names.insert(name);
    for (const auto &[_, e] : entries)
        for (const auto &m : e.aliases)
            names.insert(m.alias);
    return {names.begin(), names.end()};
}

std::string
PassRegistry::aliasDescription(const std::string &name) const
{
    auto it = composites.find(name);
    return it == composites.end() ? "" : it->second.description;
}

std::vector<std::string>
PassRegistry::aliasesOf(const std::string &pass) const
{
    std::vector<std::string> names;
    const Entry *e = findPass(pass);
    if (!e)
        return names;
    for (const auto &m : e->aliases)
        names.push_back(m.alias);
    std::sort(names.begin(), names.end());
    return names;
}

std::string
PassRegistry::suggest(const std::string &unknown) const
{
    std::vector<std::string> candidates = passNames();
    for (const auto &a : aliasNames())
        candidates.push_back(a);
    return suggestClosest(unknown, candidates);
}

} // namespace calyx::passes

/**
 * @file
 * IRModule: the unit of compilation. Unlike traditional multi-level
 * compilers, a single module holds graph-level functions *and* loop-level
 * tensor programs side by side — the cross-level abstraction of §3.3.
 */
#ifndef RELAX_IR_MODULE_H_
#define RELAX_IR_MODULE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/expr.h"
#include "tir/stmt.h"

namespace relax {
namespace ir {

class IRModule;
using IRModulePtr = std::shared_ptr<IRModule>;

/** A module of graph-level functions and tensor programs. */
class IRModule
{
  public:
    static IRModulePtr create() { return std::make_shared<IRModule>(); }

    /** Adds (or replaces) a graph-level function. */
    GlobalVar
    addFunction(const std::string& name, Function func)
    {
        func->attrs["global_symbol"] = name;
        relaxFuncs_[name] = std::move(func);
        return getGlobalVar(name);
    }

    /** Adds (or replaces) a tensor program. */
    GlobalVar
    addTIRFunc(tir::PrimFunc func)
    {
        std::string name = func->name;
        tirFuncs_[name] = std::move(func);
        return getGlobalVar(name);
    }

    /** Interned per-module GlobalVar for a function name. */
    GlobalVar
    getGlobalVar(const std::string& name)
    {
        auto [it, inserted] = globalVars_.emplace(name, nullptr);
        if (inserted) it->second = makeGlobalVar(name);
        return it->second;
    }

    /** Looks up a graph-level function; null when absent. */
    Function
    getFunction(const std::string& name) const
    {
        auto it = relaxFuncs_.find(name);
        return it == relaxFuncs_.end() ? nullptr : it->second;
    }

    /** Looks up a tensor program; null when absent. */
    tir::PrimFunc
    getTIRFunc(const std::string& name) const
    {
        auto it = tirFuncs_.find(name);
        return it == tirFuncs_.end() ? nullptr : it->second;
    }

    void
    removeFunction(const std::string& name)
    {
        relaxFuncs_.erase(name);
        tirFuncs_.erase(name);
        // The freed name was `name` itself or `hint_<k>` for the hint
        // before its last '_': neither hint may resume past it.
        nameSuffixes_.erase(name);
        size_t cut = name.rfind('_');
        if (cut != std::string::npos && cut + 1 < name.size() &&
            name.find_first_not_of("0123456789", cut + 1) ==
                std::string::npos) {
            nameSuffixes_.erase(name.substr(0, cut));
        }
    }

    const std::map<std::string, Function>& functions() const
    {
        return relaxFuncs_;
    }
    const std::map<std::string, tir::PrimFunc>& tirFuncs() const
    {
        return tirFuncs_;
    }

    /**
     * Returns a name not yet used in the module, derived from `hint`: the
     * first free one of `hint`, `hint_1`, `hint_2`, ... The probe resumes
     * at the suffix last issued for `hint`, since every name below it is
     * still taken until removeFunction frees one.
     */
    std::string
    uniqueName(const std::string& hint)
    {
        int& suffix = nameSuffixes_[hint];
        std::string name =
            suffix == 0 ? hint : hint + "_" + std::to_string(suffix);
        while (relaxFuncs_.count(name) || tirFuncs_.count(name)) {
            name = hint + "_" + std::to_string(++suffix);
        }
        return name;
    }

    /** Deep-ish copy: function tables are copied; bodies are shared
     *  (passes construct fresh bodies rather than mutating). */
    IRModulePtr
    copy() const
    {
        auto clone = create();
        clone->relaxFuncs_ = relaxFuncs_;
        clone->tirFuncs_ = tirFuncs_;
        clone->globalVars_ = globalVars_;
        clone->nameSuffixes_ = nameSuffixes_;
        return clone;
    }

    std::string toString() const;

  private:
    std::map<std::string, Function> relaxFuncs_;
    std::map<std::string, tir::PrimFunc> tirFuncs_;
    std::map<std::string, GlobalVar> globalVars_;
    /** Per uniqueName hint, the suffix it last issued. */
    std::map<std::string, int> nameSuffixes_;
};

/**
 * Validates module well-formedness; throws IRError on the first violation.
 *
 * Checked rules:
 *  - every function body is a SeqExpr and every binding variable carries a
 *    StructInfo annotation;
 *  - variables are defined before use (params, then bindings in order);
 *  - dataflow blocks contain no control flow (no If values), and dataflow
 *    variables do not escape their defining block;
 *  - call_tir callees name tensor programs present in the module and
 *    call_dps_library callees are extern functions;
 *  - match_cast bindings carry a target annotation.
 */
void wellFormed(const IRModulePtr& module);

} // namespace ir
} // namespace relax

#endif // RELAX_IR_MODULE_H_

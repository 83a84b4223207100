/**
 * @file
 * VM code generation (§4.7): translates lowered graph functions into
 * instruction sequences. Symbolic variables referenced anywhere in a
 * function are populated by MatchShape instructions over the input
 * tensors; every remaining symbolic expression is carried in the
 * instructions and evaluated against the populated symbol table. Each
 * value gets one register: a rebinding (`x = y`, `x = const`, a
 * match_cast) names the register that already holds its value and
 * emits no copy.
 */
#include "vm/exec.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "ir/utils.h"

namespace relax {
namespace vm {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

class FunctionCodegen
{
  public:
    FunctionCodegen(const Function& func, const IRModulePtr& module)
        : func_(func), module_(module) {}

    VMFunction
    run(const std::string& name)
    {
        out_.name = name;
        out_.numParams = (int)func_->params.size();
        for (const auto& param : func_->params) {
            regOf(param.get());
        }
        emitInputShapeMatches();
        const auto* seq = static_cast<const SeqExprNode*>(func_->body.get());
        for (const auto& block : seq->blocks) {
            for (const auto& binding : block->bindings) {
                emitBinding(binding);
            }
        }
        Instr ret;
        ret.op = Instr::Op::kRet;
        ret.args.push_back(regOfExpr(seq->body));
        out_.instrs.push_back(std::move(ret));
        out_.numRegs = nextReg_;
        return out_;
    }

  private:
    RegIndex
    regOf(const VarNode* v)
    {
        auto [it, inserted] = regs_.emplace(v, nextReg_);
        if (inserted) ++nextReg_;
        return it->second;
    }

    /** Binds `v` to `reg`, the register already holding its value. */
    void
    aliasTo(const VarNode* v, RegIndex reg)
    {
        bool inserted = regs_.emplace(v, reg).second;
        RELAX_ICHECK(inserted) << "codegen: " << v->name << " bound twice";
    }

    RegIndex
    regOfExpr(const Expr& expr)
    {
        if (expr->kind() == RxKind::kConstant) {
            // Materialize the constant once at first use.
            const auto* node =
                static_cast<const ConstantNode*>(expr.get());
            auto [it, inserted] = constRegs_.emplace(node, nextReg_);
            if (inserted) {
                ++nextReg_;
                Instr instr;
                instr.op = Instr::Op::kLoadConst;
                instr.dst = it->second;
                instr.constant = node->data;
                out_.instrs.push_back(std::move(instr));
            }
            return it->second;
        }
        RELAX_ICHECK(expr->kind() == RxKind::kVar)
            << "codegen expects variable operands, got " << toString(expr);
        return regOf(static_cast<const VarNode*>(expr.get()));
    }

    /** Populates the symbol table from input tensor shapes (MatchShape). */
    void
    emitInputShapeMatches()
    {
        std::unordered_set<const ::relax::VarNode*> bound;
        for (const auto& param : func_->params) {
            const auto* tensor = asTensor(param->structInfo());
            if (!tensor || !tensor->shape) continue;
            Instr instr;
            instr.op = Instr::Op::kMatchShape;
            instr.args.push_back(regOf(param.get()));
            for (size_t d = 0; d < tensor->shape->size(); ++d) {
                const PrimExpr& dim = (*tensor->shape)[d];
                if (dim->kind() == ExprKind::kVar) {
                    const auto* v =
                        static_cast<const ::relax::VarNode*>(dim.get());
                    if (bound.insert(v).second) {
                        instr.binds.emplace_back(
                            (int)d,
                            std::static_pointer_cast<const ::relax::VarNode>(
                                dim));
                        continue;
                    }
                }
                instr.checks.emplace_back((int)d, dim);
            }
            if (!instr.binds.empty() || !instr.checks.empty()) {
                out_.instrs.push_back(std::move(instr));
            }
        }
    }

    void
    emitBinding(const Binding& binding)
    {
        const Expr& value = binding.value;
        if (binding.isMatchCast) {
            emitMatchCast(binding);
            return;
        }
        if (isOpCall(value, "relax.memory.alloc_storage")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kAllocStorage;
            instr.dst = regOf(binding.var.get());
            instr.sizeExpr =
                static_cast<const PrimValueNode*>(call->args[0].get())
                    ->value;
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.memory.alloc_tensor") ||
            isOpCall(value, "relax.builtin.alloc_tensor")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            const auto* tensor = asTensor(call->sinfoArgs[0]);
            RELAX_ICHECK(tensor && tensor->shape)
                << "alloc_tensor without symbolic shape";
            Instr instr;
            instr.op = Instr::Op::kAllocTensor;
            instr.dst = regOf(binding.var.get());
            if (!call->args.empty()) {
                instr.args.push_back(regOfExpr(call->args[0])); // storage
            }
            instr.shape = *tensor->shape;
            instr.dtype = tensor->dtype;
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.vm.kernel_call")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kKernelCall;
            instr.attrs = call->attrs;
            instr.numInputs =
                (int)std::get<int64_t>(call->attrs.at("num_inputs"));
            instr.numOutputs =
                (int)std::get<int64_t>(call->attrs.at("num_outputs"));
            int64_t num_sym =
                std::get<int64_t>(call->attrs.at("num_sym_args"));
            instr.isLibrary = std::get<std::string>(
                                  call->attrs.at("callee_kind")) == "library";
            if (instr.isLibrary) {
                instr.callee = static_cast<const ExternFuncNode*>(
                                   call->args[0].get())
                                   ->name;
            } else {
                instr.callee = static_cast<const GlobalVarNode*>(
                                   call->args[0].get())
                                   ->name;
                RELAX_ICHECK(module_->getTIRFunc(instr.callee))
                    << "missing kernel " << instr.callee;
            }
            for (int i = 0; i < instr.numInputs + instr.numOutputs; ++i) {
                instr.args.push_back(regOfExpr(call->args[1 + i]));
                if (instr.isLibrary) {
                    // Carry each argument's symbolic shape so the VM can
                    // price library kernels at the padded binding inside
                    // bucketed graph regions (DESIGN.md §4).
                    const auto* tensor =
                        asTensor(call->args[1 + i]->structInfo());
                    instr.argShapes.push_back(
                        tensor && tensor->shape
                            ? *tensor->shape
                            : std::vector<PrimExpr>{});
                }
            }
            for (int64_t i = 0; i < num_sym; ++i) {
                const Expr& arg =
                    call->args[1 + instr.numInputs + instr.numOutputs + i];
                instr.symExprs.push_back(
                    static_cast<const PrimValueNode*>(arg.get())->value);
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.call_packed")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kPackedCall;
            instr.dst = regOf(binding.var.get());
            instr.callee = static_cast<const ExternFuncNode*>(
                               call->args[0].get())
                               ->name;
            instr.attrs = call->attrs;
            for (size_t i = 1; i < call->args.size(); ++i) {
                instr.args.push_back(regOfExpr(call->args[i]));
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.vm.graph_begin") ||
            isOpCall(value, "relax.vm.graph_end")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = isOpCall(value, "relax.vm.graph_begin")
                           ? Instr::Op::kGraphBegin
                           : Instr::Op::kGraphEnd;
            instr.graphId = std::get<int64_t>(call->attrs.at("graph_id"));
            if (auto it = call->attrs.find("bucket_block");
                it != call->attrs.end()) {
                instr.bucketBlock = std::get<int64_t>(it->second);
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (value->kind() == RxKind::kVar ||
            value->kind() == RxKind::kConstant) {
            // `x = y` / `x = const`: in SSA form only a second name for
            // one value, so x takes the register that already holds it.
            aliasTo(binding.var.get(), regOfExpr(value));
            return;
        }
        if (value->kind() == RxKind::kTuple) {
            const auto* tuple = static_cast<const TupleNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kMakeTuple;
            instr.dst = regOf(binding.var.get());
            for (const auto& field : tuple->fields) {
                instr.args.push_back(regOfExpr(field));
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (value->kind() == RxKind::kTupleGetItem) {
            const auto* node =
                static_cast<const TupleGetItemNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kGetItem;
            instr.dst = regOf(binding.var.get());
            instr.args.push_back(regOfExpr(node->tuple));
            instr.index = node->index;
            out_.instrs.push_back(std::move(instr));
            return;
        }
        RELAX_THROW(IRError)
            << "codegen: unlowered binding " << binding.var->name << " = "
            << toString(value)
            << " (run the Fig. 13 pipeline before building)";
    }

    void
    emitMatchCast(const Binding& binding)
    {
        // The cast value keeps its register; bare vars in the target
        // annotation bind from the runtime shape, composite dims become
        // runtime checks (§3.2).
        RegIndex reg = regOfExpr(binding.value);
        aliasTo(binding.var.get(), reg);

        const auto* tensor = asTensor(binding.castInfo);
        if (!tensor || !tensor->shape) return;
        Instr match;
        match.op = Instr::Op::kMatchShape;
        match.args.push_back(reg);
        for (size_t d = 0; d < tensor->shape->size(); ++d) {
            const PrimExpr& dim = (*tensor->shape)[d];
            if (dim->kind() == ExprKind::kVar) {
                match.binds.emplace_back(
                    (int)d,
                    std::static_pointer_cast<const ::relax::VarNode>(dim));
            } else {
                match.checks.emplace_back((int)d, dim);
            }
        }
        out_.instrs.push_back(std::move(match));
    }

    Function func_;
    IRModulePtr module_;
    VMFunction out_;
    std::unordered_map<const VarNode*, RegIndex> regs_;
    std::unordered_map<const ConstantNode*, RegIndex> constRegs_;
    int nextReg_ = 0;
};

} // namespace

ExecutablePtr
buildExecutable(const IRModulePtr& module)
{
    auto exec = std::make_shared<Executable>();
    exec->module = module;
    for (const auto& [name, func] : module->functions()) {
        FunctionCodegen codegen(func, module);
        exec->functions[name] = codegen.run(name);
    }
    return exec;
}

std::string
toString(const VMFunction& func)
{
    std::ostringstream os;
    os << "vm_function " << func.name << " (params=" << func.numParams
       << ", regs=" << func.numRegs << ")\n";
    for (const auto& instr : func.instrs) {
        switch (instr.op) {
          case Instr::Op::kMatchShape:
            os << "  match_shape r" << instr.args[0];
            for (const auto& [dim, v] : instr.binds) {
                os << " [" << dim << "]->" << v->name;
            }
            for (const auto& [dim, expr] : instr.checks) {
                os << " check[" << dim << "]==" << relax::toString(expr);
            }
            break;
          case Instr::Op::kAllocStorage:
            os << "  r" << instr.dst << " = alloc_storage("
               << relax::toString(instr.sizeExpr) << ")";
            break;
          case Instr::Op::kAllocTensor:
            os << "  r" << instr.dst << " = alloc_tensor("
               << relax::toString(instr.shape) << ", "
               << instr.dtype.toString();
            if (!instr.args.empty()) os << ", storage=r" << instr.args[0];
            os << ")";
            break;
          case Instr::Op::kKernelCall:
            os << "  kernel_call " << instr.callee
               << (instr.isLibrary ? " [lib]" : "") << " regs(";
            for (size_t i = 0; i < instr.args.size(); ++i) {
                if (i) os << ", ";
                os << "r" << instr.args[i];
            }
            os << ")";
            break;
          case Instr::Op::kPackedCall:
            os << "  r" << instr.dst << " = packed " << instr.callee;
            break;
          case Instr::Op::kGraphBegin:
            os << "  graph_begin " << instr.graphId;
            if (instr.bucketBlock > 1) {
                os << " bucket=" << instr.bucketBlock;
            }
            break;
          case Instr::Op::kGraphEnd:
            os << "  graph_end " << instr.graphId;
            break;
          case Instr::Op::kLoadConst:
            os << "  r" << instr.dst << " = const";
            break;
          case Instr::Op::kMakeTuple:
            os << "  r" << instr.dst << " = tuple(...)";
            break;
          case Instr::Op::kGetItem:
            os << "  r" << instr.dst << " = r" << instr.args[0] << "["
               << instr.index << "]";
            break;
          case Instr::Op::kRet:
            os << "  ret r" << instr.args[0];
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace vm
} // namespace relax

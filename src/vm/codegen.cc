/**
 * @file
 * VM code generation (§4.7): translates lowered graph functions into
 * instruction sequences. Symbolic variables referenced anywhere in a
 * function are populated by MatchShape instructions over the input
 * tensors, each into a slot of the function's shape table, numbered in
 * order of first binding; a variable with a compiled bound is checked
 * against it where it binds. Every remaining symbolic expression is lowered
 * to a SlotProgram over that table; a variable no MatchShape has bound
 * by then lowers to a failure, since code is straight-line. Each value
 * gets one register: a rebinding (`x = y`, `x = const`, a match_cast)
 * names the register that already holds its value and emits no copy.
 */
#include "vm/exec.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "ir/utils.h"

namespace relax {
namespace vm {

SlotProgram::SlotProgram(PrimExpr expr, const SlotMap& slots)
    : expr_(std::move(expr))
{
    Steps lowered;
    lower(expr_, slots, 0, lowered);
    if (lowered.steps.size() == 1) {
        code_ = lowered.steps[0].code;
        payload_.arg = lowered.steps[0].arg;
    } else {
        code_ = Code::kSteps;
        payload_.steps = new Steps(std::move(lowered));
    }
}

SlotProgram::SlotProgram(const SlotProgram& other)
    : expr_(other.expr_), code_(other.code_)
{
    if (code_ == Code::kSteps) {
        payload_.steps = new Steps(*other.payload_.steps);
    } else {
        payload_ = other.payload_;
    }
}

SlotProgram::SlotProgram(SlotProgram&& other) noexcept
    : expr_(std::move(other.expr_)), payload_(other.payload_),
      code_(other.code_)
{
    other.code_ = Code::kFail; // `other` no longer owns the steps
}

SlotProgram&
SlotProgram::operator=(SlotProgram other) noexcept
{
    std::swap(expr_, other.expr_);
    std::swap(payload_, other.payload_);
    std::swap(code_, other.code_);
    return *this;
}

SlotProgram::~SlotProgram()
{
    if (code_ == Code::kSteps) delete payload_.steps;
}

void
SlotProgram::lower(const PrimExpr& expr, const SlotMap& slots, int depth,
                   Steps& out)
{
    // `depth` values sit on the stack below this expression's result.
    out.maxDepth = std::max(out.maxDepth, depth + 1);
    std::vector<Step>& steps = out.steps;
    auto emit = [&](Code code, int64_t arg = 0) {
        steps.push_back({code, arg});
    };
    if (!expr) {
        emit(Code::kFail);
        return;
    }
    switch (expr->kind()) {
      case ExprKind::kIntImm:
        emit(Code::kImm, static_cast<const IntImmNode*>(expr.get())->value);
        return;
      case ExprKind::kVar: {
        auto it = slots.find(static_cast<const ::relax::VarNode*>(expr.get()));
        if (it == slots.end()) {
            emit(Code::kFail);
        } else {
            emit(Code::kSlot, it->second);
        }
        return;
      }
      case ExprKind::kNot:
        lower(static_cast<const UnaryNode*>(expr.get())->a, slots, depth,
              out);
        emit(Code::kNot);
        return;
      case ExprKind::kCast:
        lower(static_cast<const UnaryNode*>(expr.get())->a, slots, depth,
              out);
        return;
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        lower(node->cond, slots, depth, out);
        size_t to_false = steps.size();
        emit(Code::kJumpIfZero);
        lower(node->trueValue, slots, depth, out);
        size_t to_end = steps.size();
        emit(Code::kJump);
        steps[to_false].arg = (int64_t)steps.size();
        lower(node->falseValue, slots, depth, out);
        steps[to_end].arg = (int64_t)steps.size();
        return;
      }
      case ExprKind::kFloatImm:
      case ExprKind::kCall:
      case ExprKind::kBufferLoad:
        emit(Code::kFail);
        return;
      default:
        break;
    }
    Code code;
    switch (expr->kind()) {
      case ExprKind::kAdd: code = Code::kAdd; break;
      case ExprKind::kSub: code = Code::kSub; break;
      case ExprKind::kMul: code = Code::kMul; break;
      case ExprKind::kFloorDiv: code = Code::kFloorDiv; break;
      case ExprKind::kFloorMod: code = Code::kFloorMod; break;
      case ExprKind::kDiv: code = Code::kDiv; break;
      case ExprKind::kMin: code = Code::kMin; break;
      case ExprKind::kMax: code = Code::kMax; break;
      case ExprKind::kEQ: code = Code::kEQ; break;
      case ExprKind::kNE: code = Code::kNE; break;
      case ExprKind::kLT: code = Code::kLT; break;
      case ExprKind::kLE: code = Code::kLE; break;
      case ExprKind::kGT: code = Code::kGT; break;
      case ExprKind::kGE: code = Code::kGE; break;
      case ExprKind::kAnd: code = Code::kAnd; break;
      case ExprKind::kOr: code = Code::kOr; break;
      default: emit(Code::kFail); return;
    }
    const auto* node = static_cast<const BinaryNode*>(expr.get());
    lower(node->a, slots, depth, out);
    lower(node->b, slots, depth + 1, out);
    emit(code);
}

std::vector<int>
SlotProgram::reads() const
{
    std::vector<int> out;
    if (code_ == Code::kSlot) out.push_back((int)payload_.arg);
    if (code_ == Code::kSteps) {
        for (const Step& step : payload_.steps->steps) {
            if (step.code == Code::kSlot) out.push_back((int)step.arg);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

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
        const auto* seq = static_cast<const SeqExprNode*>(func_->body.get());
        // About one instruction per parameter and binding (a constant
        // adds a load at its first use): reserving spares the copies of
        // a growing vector, and the reserved tail is never touched.
        size_t bound = func_->params.size() + 1;
        for (const auto& block : seq->blocks) bound += block->bindings.size();
        out_.instrs.reserve(bound);
        emitInputShapeMatches();
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
        return std::move(out_);
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
                instr.index = (int)out_.constants.size();
                out_.constants.push_back(node->data);
                out_.instrs.push_back(std::move(instr));
            }
            return it->second;
        }
        RELAX_ICHECK(expr->kind() == RxKind::kVar)
            << "codegen expects variable operands, got " << toString(expr);
        return regOf(static_cast<const VarNode*>(expr.get()));
    }

    /** The slot of `dim`, a bare variable, assigned at its first bind. */
    int
    bindSlot(const PrimExpr& dim)
    {
        auto var = std::static_pointer_cast<const ::relax::VarNode>(dim);
        auto [it, inserted] = slots_.emplace(var.get(), (int)slots_.size());
        if (inserted) out_.slotVars.push_back(var);
        return it->second;
    }

    /** `expr` lowered against the variables bound so far. */
    SlotProgram
    lowered(const PrimExpr& expr) const
    {
        return SlotProgram(expr, slots_);
    }

    std::vector<SlotProgram>
    lowered(const std::vector<PrimExpr>& exprs) const
    {
        std::vector<SlotProgram> programs;
        programs.reserve(exprs.size());
        for (const auto& expr : exprs) programs.push_back(lowered(expr));
        return programs;
    }

    /**
     * One MatchShape over `shape`: a bare variable's first occurrence
     * binds its slot, refusing a value above the variable's compiled
     * bound, and every other dim — a variable bound before included —
     * becomes a check. Checks run after the binds, so they are lowered
     * after them.
     */
    Instr
    matchShape(RegIndex reg, const std::vector<PrimExpr>& shape)
    {
        Instr instr;
        instr.op = Instr::Op::kMatchShape;
        instr.args.push_back(reg);
        std::vector<std::pair<int, PrimExpr>> checks;
        for (size_t d = 0; d < shape.size(); ++d) {
            const PrimExpr& dim = shape[d];
            const auto* var =
                dim->kind() == ExprKind::kVar
                    ? static_cast<const ::relax::VarNode*>(dim.get())
                    : nullptr;
            if (var && !slots_.count(var)) {
                instr.binds.push_back(
                    {(int)d, bindSlot(dim),
                     compiledBound(*func_, var->name)
                         .value_or(std::numeric_limits<int64_t>::max())});
            } else {
                checks.emplace_back((int)d, dim);
            }
        }
        for (const auto& [d, dim] : checks) {
            instr.checks.emplace_back(d, lowered(dim));
        }
        return instr;
    }

    /** Populates the shape table from input tensor shapes (MatchShape). */
    void
    emitInputShapeMatches()
    {
        for (const auto& param : func_->params) {
            const auto* tensor = asTensor(param->structInfo());
            if (!tensor || !tensor->shape) continue;
            Instr instr = matchShape(regOf(param.get()), *tensor->shape);
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
            instr.shape.push_back(lowered(
                static_cast<const PrimValueNode*>(call->args[0].get())
                    ->value));
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
            instr.shape = lowered(*tensor->shape);
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
            int num_args = instr.numInputs + instr.numOutputs;
            for (int i = 0; i < num_args; ++i) {
                instr.args.push_back(regOfExpr(call->args[1 + i]));
            }
            if (instr.isLibrary) {
                // Carry each argument's symbolic shape so the VM can
                // price library kernels at the padded binding inside
                // bucketed graph regions (DESIGN.md §4).
                std::vector<PrimExpr> dims;
                for (int i = 0; i < num_args; ++i) {
                    const auto* tensor =
                        asTensor(call->args[1 + i]->structInfo());
                    if (tensor && tensor->shape) {
                        dims.insert(dims.end(), tensor->shape->begin(),
                                    tensor->shape->end());
                    }
                    instr.argShapeEnds.push_back((int)dims.size());
                }
                instr.argShapes = lowered(dims);
            }
            for (int64_t i = 0; i < num_sym; ++i) {
                const Expr& arg =
                    call->args[1 + instr.numInputs + instr.numOutputs + i];
                instr.symArgs.push_back(lowered(
                    static_cast<const PrimValueNode*>(arg.get())->value));
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
            instr.boundSlots = (int)out_.slotVars.size();
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
        // annotation that nothing bound yet bind from the runtime shape
        // (§3.2: a match_cast only defines new variables), and every
        // other dim — an already-bound variable included — becomes a
        // runtime check.
        RegIndex reg = regOfExpr(binding.value);
        aliasTo(binding.var.get(), reg);

        const auto* tensor = asTensor(binding.castInfo);
        if (!tensor || !tensor->shape) return;
        out_.instrs.push_back(matchShape(reg, *tensor->shape));
    }

    Function func_;
    IRModulePtr module_;
    VMFunction out_;
    std::unordered_map<const VarNode*, RegIndex> regs_;
    std::unordered_map<const ConstantNode*, RegIndex> constRegs_;
    int nextReg_ = 0;
    /** The shape table so far: every variable a MatchShape has bound. */
    SlotMap slots_;
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
            for (const Instr::Bind& bind : instr.binds) {
                os << " [" << bind.dim << "]->"
                   << func.slotVars[bind.slot]->name;
                if (bind.bound != std::numeric_limits<int64_t>::max()) {
                    os << "<=" << bind.bound;
                }
            }
            for (const auto& [dim, check] : instr.checks) {
                os << " check[" << dim
                   << "]==" << relax::toString(check.expr());
            }
            break;
          case Instr::Op::kAllocStorage:
            os << "  r" << instr.dst << " = alloc_storage("
               << relax::toString(instr.shape[0].expr()) << ")";
            break;
          case Instr::Op::kAllocTensor: {
            std::vector<PrimExpr> shape;
            for (const auto& dim : instr.shape) shape.push_back(dim.expr());
            os << "  r" << instr.dst << " = alloc_tensor("
               << relax::toString(shape) << ", "
               << instr.dtype.toString();
            if (!instr.args.empty()) os << ", storage=r" << instr.args[0];
            os << ")";
            break;
          }
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

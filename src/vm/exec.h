/**
 * @file
 * The VM executable: the artifact the compiler builds (§4.7). Graph-level
 * code becomes a sequence of virtual machine instructions, each a call
 * into a generated kernel or a runtime builtin. Symbolic shape values live
 * in a per-invocation shape table (the paper's "integer host tensor"): one
 * dense int64 slot per symbolic variable of the function, populated by
 * shape-matching instructions on the inputs. Codegen lowers every
 * symbolic expression the executor evaluates to a flat postfix program
 * over those slots (TVM Relax's "shape heap"), so no instruction walks an
 * expression tree at run time. Registers hold values, not names: every
 * name an SSA rebinding gives a value shares that value's register, so no
 * instruction copies one register to another.
 */
#ifndef RELAX_VM_EXEC_H_
#define RELAX_VM_EXEC_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.h"
#include "tir/analysis.h"

namespace relax {
namespace vm {

/** Register index. */
using RegIndex = int32_t;

/** Maps each symbolic variable bound at some point to its slot there. */
using SlotMap = std::unordered_map<const ::relax::VarNode*, int>;

/**
 * A symbolic integer expression lowered to a flat postfix program over a
 * slot table. Evaluation keeps tryEvalInt's semantics exactly: a variable
 * that `slots` did not map when the program was lowered is unbound, and
 * it, a zero divisor or a non-integer node fails the evaluation; a select
 * evaluates only the branch it takes. Lowered by codegen (codegen.cc) and
 * evaluated by the executor (vm.cc).
 */
class SlotProgram
{
  public:
    SlotProgram() = default;
    SlotProgram(PrimExpr expr, const SlotMap& slots);
    SlotProgram(const SlotProgram& other);
    SlotProgram(SlotProgram&& other) noexcept;
    SlotProgram& operator=(SlotProgram other) noexcept;
    ~SlotProgram();

    /** The value at `slots`; nullopt exactly where tryEvalInt fails. */
    std::optional<int64_t> tryEval(const int64_t* slots) const;
    /** Like tryEval but throws evalInt's ShapeError on failure. */
    int64_t eval(const int64_t* slots) const;

    /** The slots the program reads, ascending and unique. */
    std::vector<int> reads() const;
    /** The expression the program was lowered from. */
    const PrimExpr& expr() const { return expr_; }

    /** This program without its expression, which it then keeps no
     *  longer alive; only tryEval() applies to it. */
    SlotProgram
    withoutExpr() const
    {
        SlotProgram program = *this;
        program.expr_ = nullptr;
        return program;
    }

  private:
    enum class Code : uint8_t {
        kImm,        //!< push arg
        kSlot,       //!< push slots[arg]
        kFail,       //!< unbound variable or non-integer node
        kNot,
        kJumpIfZero, //!< pop; continue at arg when zero
        kJump,       //!< continue at arg
        kAdd,
        kSub,
        kMul,
        kFloorDiv,
        kFloorMod,
        kDiv,
        kMin,
        kMax,
        kEQ,
        kNE,
        kLT,
        kLE,
        kGT,
        kGE,
        kAnd,
        kOr,
        kSteps //!< (the program's own code only) a longer program
    };
    struct Step
    {
        Code code;
        int64_t arg;
    };
    /** The steps of a program longer than one step. */
    struct Steps
    {
        std::vector<Step> steps;
        int maxDepth = 0;
    };

    static void lower(const PrimExpr& expr, const SlotMap& slots, int depth,
                      Steps& out);

    /** A one-step program (a slot or a constant: most shape dims) is held
     *  inline as `code_` and `arg`; a longer one (`code_` kSteps) in
     *  `steps`. Programs are per instruction, so they stay this small:
     *  32 bytes, where a std::unique_ptr<Steps> beside an inline step
     *  takes 40 and raised compile_decode's peak RSS by 0.35 MiB. */
    union Payload
    {
        int64_t arg;
        Steps* steps;
    };

    PrimExpr expr_;
    Payload payload_ = {0};
    Code code_ = Code::kFail;
};

/** One VM instruction. */
struct Instr
{
    enum class Op : uint8_t {
        kMatchShape,   //!< bind/check symbolic vars against a tensor's shape
        kAllocStorage, //!< dst = storage of sizeExpr bytes
        kAllocTensor,  //!< dst = tensor(shape) [from storage when src >= 0]
        kKernelCall,   //!< DPS kernel launch (generated or library)
        kPackedCall,   //!< dst = builtin(args...) (runtime-allocating)
        kGraphBegin,   //!< execution-graph capture/replay region start
        kGraphEnd,
        kLoadConst, //!< dst = embedded constant tensor
        kMakeTuple, //!< dst = (args...)
        kGetItem,   //!< dst = src[index]
        kRet
    };

    Op op;
    RegIndex dst = -1;
    std::vector<RegIndex> args;

    /** kMatchShape: dim `dim` of register args[0] binds slot `slot`,
     *  and must not exceed the variable's compiled bound (the bound the
     *  static memory plan sized storages from; INT64_MAX for none). */
    struct Bind
    {
        int dim;
        int slot;
        int64_t bound;
    };
    // kMatchShape: `checks` holds (dim index, expression) runtime
    // verifications, evaluated after the binds.
    std::vector<Bind> binds;
    std::vector<std::pair<int, SlotProgram>> checks;

    // kAllocStorage: shape[0] is the storage size in bytes.
    // kAllocTensor: the tensor's shape and dtype.
    std::vector<SlotProgram> shape;
    DataType dtype;

    // kKernelCall / kPackedCall
    std::string callee;
    bool isLibrary = false;
    int numInputs = 0;
    int numOutputs = 0;
    std::vector<SlotProgram> symArgs; //!< evaluated into kernel sym args
    ir::Attrs attrs;
    /**
     * kKernelCall (library callees): the symbolic shape of each register
     * in `args`, flattened: argument i's dims are argShapes[j] for j in
     * [argShapeEnds[i - 1], argShapeEnds[i]) (none when its annotation
     * carries no shape). Inside a bucketed graph region the VM
     * re-evaluates these at the padded slots so library kernels are
     * priced at the bucket ceiling, exactly like generated kernels (the
     * padding-correctness invariant, DESIGN.md §4). Generated kernels do
     * not need this: their cost expressions bind through the shared
     * symbolic vars.
     */
    std::vector<SlotProgram> argShapes;
    std::vector<int> argShapeEnds;

    // kGraphBegin / kGraphEnd
    int64_t graphId = -1;
    /**
     * kGraphBegin: bucket size for the capture signature. Symbolic dims
     * are rounded up to their bucket ceiling — the next multiple of
     * this block, or the next power of two when smaller — when keying
     * captured graphs, so nearby shapes (e.g. consecutive decode context
     * lengths) share one graph; kernels inside the region are priced at
     * the padded shape. 1 = exact signatures (no bucketing).
     */
    int64_t bucketBlock = 1;
    /** kGraphBegin: slots [0, boundSlots) are bound when the region
     *  begins (slots are numbered in order of first binding). */
    int boundSlots = 0;

    // kGetItem: the field; kLoadConst: the function's constant.
    int index = 0;
};

/** One compiled function. */
struct VMFunction
{
    std::string name;
    int numParams = 0;
    int numRegs = 0;
    /** The shape table's layout: slot i holds slotVars[i]. */
    std::vector<::relax::Var> slotVars;
    /** Embedded constants, loaded by kLoadConst. */
    std::vector<NDArray> constants;
    std::vector<Instr> instrs;
};

/** A generated kernel's roofline cost, before the device's efficiency
 *  for its class is applied. */
struct PricedKernel
{
    double flops = 0.0;
    double bytes = 0.0;
    bool fma = false;  //!< a matmul core: output-fusible or dense
    bool gemv = false; //!< a matmul core with a single output row
};

/**
 * A generated-kernel call site resolved for launch: the tensor program it
 * runs, lowered for binding and pricing against a small slot table of its
 * own (the kernel slots). Its symbolic parameters come first, then the
 * bare variables of its buffer shapes, in tir::bindShapes' order.
 */
struct KernelSite
{
    tir::PrimFunc func;
    tir::PatternKind kind = tir::PatternKind::kOpaque;
    int numSlots = 0;
    /** Kernel slot of each symbolic parameter. */
    std::vector<int> symSlots;
    /** Rank of each buffer parameter; its dims follow in `dims`. */
    std::vector<int> ranks;
    /** A buffer dim that is a bare variable binds its kernel slot at the
     *  variable's first occurrence and must agree with it after; any
     *  other dim (slot -1) is one of `checks`. */
    struct Dim
    {
        int slot = -1;
        bool binds = false;
    };
    std::vector<Dim> dims;
    /** Composite dims, checked once every variable is bound. */
    struct Check
    {
        int param;
        int dim;
        SlotProgram extent;
    };
    std::vector<Check> checks;
    /** Per kernel slot, the calling function's slot of the same variable
     *  (padded inside a bucketed region), or -1. */
    std::vector<int> functionSlots;
    /** The cost, lowered without its expressions: only an evaluation
     *  error needs them, and it derives them again. */
    SlotProgram flops;
    SlotProgram bytes;
    /** The output buffer's leading dims (their product is the row count). */
    std::vector<SlotProgram> outRows;
    /** The kernel slots flops, bytes and outRows read: the pricing key. */
    std::vector<int> costSlots;

    /** The cost last priced, at the key values in `pricedAt`. One entry
     *  per site keeps the cache bounded however many buckets run. */
    bool priced = false;
    std::vector<int64_t> pricedAt;
    PricedKernel price;
};

/** A compiled module: functions plus the tensor programs they launch. */
class Executable
{
  public:
    std::map<std::string, VMFunction> functions;
    /** Kernel bodies (interpreted as the stand-in for GPU codegen). */
    ir::IRModulePtr module;

    /**
     * The site of generated-kernel call `instr`, one of `func`'s
     * instructions, resolved on its first launch and shared by every VM
     * running the executable. The cache lives exactly as long as the
     * executable, so a destroyed executable pins no tensor program.
     */
    KernelSite& kernelSite(const VMFunction& func, const Instr& instr) const;

  private:
    mutable std::unordered_map<const Instr*, KernelSite> kernelSites_;
};

using ExecutablePtr = std::shared_ptr<Executable>;

/**
 * Translates a fully lowered module (output of the Fig. 13 pipeline) to a
 * VM executable. Throws IRError when un-lowered constructs remain.
 */
ExecutablePtr buildExecutable(const ir::IRModulePtr& module);

/** Renders the instruction stream for debugging/tests. */
std::string toString(const VMFunction& func);

} // namespace vm
} // namespace relax

#endif // RELAX_VM_EXEC_H_

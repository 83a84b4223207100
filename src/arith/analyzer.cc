/**
 * @file
 * Implements the symbolic analyzer. Canonical simplification rewrites a
 * PrimExpr into a polynomial over atom keys (variables and opaque
 * subterms such as floordiv/min/max), so proving a == b reduces to the
 * difference polynomial vanishing; inequality proof and static
 * upper-bound evaluation run interval (ConstIntBound) arithmetic with
 * saturating +/-inf endpoints.
 */
#include "arith/analyzer.h"

#include <algorithm>
#include <string>

#include "arith/structural.h"
#include "arith/substitute.h"

namespace relax {

namespace {

// ---------------------------------------------------------------------------
// Canonical polynomial form.
//
// An integer expression is normalized into sum(coeff_i * prod(atom_ij)) where
// atoms are variables or opaque sub-expressions (floordiv, floormod, min,
// max, calls) whose children are themselves canonicalized. Equality proof is
// then subtraction + zero test.
// ---------------------------------------------------------------------------

/** Deterministic ordering key for an atom. */
struct AtomKey
{
    size_t hash;
    std::string repr;
    PrimExpr expr;

    explicit AtomKey(PrimExpr e)
        : hash(structuralHash(e)), repr(toString(e)), expr(std::move(e)) {}

    bool
    operator<(const AtomKey& other) const
    {
        if (repr != other.repr) return repr < other.repr;
        if (hash != other.hash) return hash < other.hash;
        // Distinct vars can share a name; order by address for determinism
        // within one process run.
        return expr.get() < other.expr.get();
    }

    bool
    operator==(const AtomKey& other) const
    {
        return hash == other.hash && structuralEqual(expr, other.expr);
    }
};

/** Product of atoms, kept sorted; the empty monomial is the constant term. */
struct Monomial
{
    std::vector<AtomKey> atoms;

    bool
    operator<(const Monomial& other) const
    {
        if (atoms.size() != other.atoms.size()) {
            return atoms.size() < other.atoms.size();
        }
        for (size_t i = 0; i < atoms.size(); ++i) {
            if (!(atoms[i] == other.atoms[i])) return atoms[i] < other.atoms[i];
        }
        return false;
    }

    bool
    operator==(const Monomial& other) const
    {
        if (atoms.size() != other.atoms.size()) return false;
        for (size_t i = 0; i < atoms.size(); ++i) {
            if (!(atoms[i] == other.atoms[i])) return false;
        }
        return true;
    }
};

struct Polynomial
{
    std::map<Monomial, int64_t> terms;

    void
    addTerm(Monomial mono, int64_t coeff)
    {
        if (coeff == 0) return;
        auto [it, inserted] = terms.emplace(std::move(mono), coeff);
        if (!inserted) {
            it->second += coeff;
            if (it->second == 0) terms.erase(it);
        }
    }

    void
    addScaled(const Polynomial& other, int64_t scale)
    {
        for (const auto& [mono, coeff] : other.terms) {
            addTerm(mono, coeff * scale);
        }
    }

    bool isZero() const { return terms.empty(); }

    /** Constant value if the polynomial has only the constant term. */
    std::optional<int64_t>
    asConst() const
    {
        if (terms.empty()) return 0;
        if (terms.size() == 1 && terms.begin()->first.atoms.empty()) {
            return terms.begin()->second;
        }
        return std::nullopt;
    }

    /** True if every coefficient is divisible by d. */
    bool
    divisibleBy(int64_t d) const
    {
        for (const auto& [mono, coeff] : terms) {
            if (coeff % d != 0) return false;
        }
        return true;
    }

    void
    divideExact(int64_t d)
    {
        for (auto& [mono, coeff] : terms) coeff /= d;
    }
};

Polynomial
mulPoly(const Polynomial& a, const Polynomial& b)
{
    Polynomial out;
    for (const auto& [ma, ca] : a.terms) {
        for (const auto& [mb, cb] : b.terms) {
            Monomial mono;
            mono.atoms.reserve(ma.atoms.size() + mb.atoms.size());
            mono.atoms.insert(mono.atoms.end(), ma.atoms.begin(),
                              ma.atoms.end());
            mono.atoms.insert(mono.atoms.end(), mb.atoms.begin(),
                              mb.atoms.end());
            std::sort(mono.atoms.begin(), mono.atoms.end());
            out.addTerm(std::move(mono), ca * cb);
        }
    }
    return out;
}

int64_t
satAdd(int64_t a, int64_t b)
{
    if (a == ConstIntBound::kPosInf || b == ConstIntBound::kPosInf) {
        return ConstIntBound::kPosInf;
    }
    if (a == ConstIntBound::kNegInf || b == ConstIntBound::kNegInf) {
        return ConstIntBound::kNegInf;
    }
    if (a > 0 && b > ConstIntBound::kPosInf - a - 1) {
        return ConstIntBound::kPosInf;
    }
    if (a < 0 && b < ConstIntBound::kNegInf - a + 1) {
        return ConstIntBound::kNegInf;
    }
    return a + b;
}

bool
isInf(int64_t v)
{
    return v == ConstIntBound::kPosInf || v == ConstIntBound::kNegInf;
}

int64_t
satMul(int64_t a, int64_t b)
{
    if (a == 0 || b == 0) return 0;
    bool negative = (a < 0) != (b < 0);
    if (isInf(a) || isInf(b)) {
        return negative ? ConstIntBound::kNegInf : ConstIntBound::kPosInf;
    }
    // Conservative overflow guard: magnitudes above 2^31 saturate.
    constexpr int64_t kGuard = int64_t(1) << 31;
    if ((a > kGuard || a < -kGuard || b > kGuard || b < -kGuard)) {
        long double prod = (long double)a * (long double)b;
        if (prod > (long double)(ConstIntBound::kPosInf / 2)) {
            return ConstIntBound::kPosInf;
        }
        if (prod < (long double)(ConstIntBound::kNegInf / 2)) {
            return ConstIntBound::kNegInf;
        }
    }
    return a * b;
}

} // namespace

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

namespace {

/** Canonicalization context tied to one Analyzer invocation. */
class Canonicalizer
{
  public:
    Canonicalizer(
        const std::unordered_map<const VarNode*, PrimExpr>& var_values,
        Analyzer* analyzer)
        : varValues_(var_values), analyzer_(analyzer) {}

    Polynomial
    run(const PrimExpr& expr)
    {
        switch (expr->kind()) {
          case ExprKind::kIntImm: {
            Polynomial p;
            p.addTerm(Monomial{},
                      static_cast<const IntImmNode*>(expr.get())->value);
            return p;
          }
          case ExprKind::kVar: {
            auto it = varValues_.find(
                static_cast<const VarNode*>(expr.get()));
            if (it != varValues_.end()) return run(it->second);
            return atomPoly(expr);
          }
          case ExprKind::kAdd: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            Polynomial p = run(node->a);
            p.addScaled(run(node->b), 1);
            return p;
          }
          case ExprKind::kSub: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            Polynomial p = run(node->a);
            p.addScaled(run(node->b), -1);
            return p;
          }
          case ExprKind::kMul: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            return mulPoly(run(node->a), run(node->b));
          }
          case ExprKind::kFloorDiv: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            Polynomial num = run(node->a);
            Polynomial den = run(node->b);
            if (auto d = den.asConst(); d && *d != 0) {
                if (auto n = num.asConst()) {
                    Polynomial p;
                    p.addTerm(Monomial{}, floorDiv(*n, *d));
                    return p;
                }
                if (*d > 0 && num.divisibleBy(*d)) {
                    num.divideExact(*d);
                    return num;
                }
            }
            return atomPoly(floordiv(rebuild(num, expr->dtype()),
                                     rebuild(den, expr->dtype())));
          }
          case ExprKind::kFloorMod: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            Polynomial num = run(node->a);
            Polynomial den = run(node->b);
            if (auto d = den.asConst(); d && *d > 0) {
                if (auto n = num.asConst()) {
                    Polynomial p;
                    p.addTerm(Monomial{}, floorMod(*n, *d));
                    return p;
                }
                if (num.divisibleBy(*d)) return Polynomial{};
            }
            return atomPoly(floormod(rebuild(num, expr->dtype()),
                                     rebuild(den, expr->dtype())));
          }
          case ExprKind::kMin:
          case ExprKind::kMax: {
            const auto* node = static_cast<const BinaryNode*>(expr.get());
            bool is_min = expr->kind() == ExprKind::kMin;
            PrimExpr a = rebuild(run(node->a), expr->dtype());
            PrimExpr b = rebuild(run(node->b), expr->dtype());
            if (structuralEqual(a, b)) return run(a);
            // Resolve when one side provably dominates; proveGE only
            // recurses into strictly smaller expressions, so this
            // terminates.
            if (analyzer_->proveGE(a, b)) return run(is_min ? b : a);
            if (analyzer_->proveGE(b, a)) return run(is_min ? a : b);
            PrimExpr rebuilt = is_min ? minExpr(a, b) : maxExpr(a, b);
            // minExpr/maxExpr may have constant-folded.
            if (rebuilt->kind() != expr->kind()) return run(rebuilt);
            return atomPoly(rebuilt);
          }
          default:
            return atomPoly(expr);
        }
    }

    /** Rebuilds a deterministic expression from a polynomial. */
    static PrimExpr
    rebuild(const Polynomial& poly, DataType dtype)
    {
        if (poly.terms.empty()) return intImm(0, dtype);
        PrimExpr result;
        int64_t constant = 0;
        for (const auto& [mono, coeff] : poly.terms) {
            if (mono.atoms.empty()) {
                constant = coeff;
                continue;
            }
            PrimExpr term;
            for (const auto& atom : mono.atoms) {
                term = term ? mul(term, atom.expr) : atom.expr;
            }
            if (coeff != 1) term = mul(intImm(coeff, dtype), term);
            result = result ? add(result, term) : term;
        }
        if (!result) return intImm(constant, dtype);
        if (constant != 0) result = add(result, intImm(constant, dtype));
        return result;
    }

  private:
    Polynomial
    atomPoly(const PrimExpr& expr)
    {
        Polynomial p;
        if (const int64_t* v = asIntImm(expr)) {
            p.addTerm(Monomial{}, *v);
            return p;
        }
        Monomial mono;
        mono.atoms.emplace_back(expr);
        p.addTerm(std::move(mono), 1);
        return p;
    }

    const std::unordered_map<const VarNode*, PrimExpr>& varValues_;
    Analyzer* analyzer_;
};

} // namespace

void
Analyzer::bindVarBound(const Var& v, int64_t min_value, int64_t max_value)
{
    RELAX_ICHECK(min_value <= max_value) << "invalid bound for " << v->name;
    auto [it, inserted] =
        var_bounds_.emplace(v.get(), ConstIntBound{min_value, max_value});
    if (!inserted) {
        it->second.minValue = std::max(it->second.minValue, min_value);
        it->second.maxValue = std::min(it->second.maxValue, max_value);
    }
}

void
Analyzer::bindVarValue(const Var& v, const PrimExpr& expr)
{
    var_values_[v.get()] = expr;
}

PrimExpr
Analyzer::simplify(const PrimExpr& expr)
{
    if (!expr) return expr;
    if (!expr->dtype().isInt() && !expr->dtype().isUInt()) return expr;
    Canonicalizer canon(var_values_, this);
    return Canonicalizer::rebuild(canon.run(expr), expr->dtype());
}

bool
Analyzer::proveEqual(const PrimExpr& a, const PrimExpr& b)
{
    if (structuralEqual(a, b)) return true;
    Canonicalizer canon(var_values_, this);
    Polynomial pa = canon.run(a);
    pa.addScaled(canon.run(b), -1);
    return pa.isZero();
}

bool
Analyzer::proveNonNegative(const PrimExpr& expr)
{
    ConstIntBound bound = constIntBound(simplify(expr));
    return bound.minValue >= 0;
}

bool
Analyzer::proveGE(const PrimExpr& a, const PrimExpr& b)
{
    return proveNonNegative(sub(a, b));
}

bool
Analyzer::proveGT(const PrimExpr& a, const PrimExpr& b)
{
    return proveNonNegative(sub(sub(a, b), intImm(1)));
}

ConstIntBound
Analyzer::constIntBound(const PrimExpr& expr)
{
    if (!expr) return ConstIntBound::everything();
    switch (expr->kind()) {
      case ExprKind::kIntImm:
        return ConstIntBound::point(
            static_cast<const IntImmNode*>(expr.get())->value);
      case ExprKind::kVar: {
        const auto* v = static_cast<const VarNode*>(expr.get());
        if (auto it = var_values_.find(v); it != var_values_.end()) {
            return constIntBound(it->second);
        }
        if (auto it = var_bounds_.find(v); it != var_bounds_.end()) {
            return it->second;
        }
        return ConstIntBound::everything();
      }
      case ExprKind::kCast:
        return constIntBound(static_cast<const UnaryNode*>(expr.get())->a);
      case ExprKind::kSelect: {
        const auto* node = static_cast<const SelectNode*>(expr.get());
        ConstIntBound t = constIntBound(node->trueValue);
        ConstIntBound f = constIntBound(node->falseValue);
        return {std::min(t.minValue, f.minValue),
                std::max(t.maxValue, f.maxValue)};
      }
      case ExprKind::kAdd:
      case ExprKind::kSub:
      case ExprKind::kMul:
      case ExprKind::kFloorDiv:
      case ExprKind::kFloorMod:
      case ExprKind::kMin:
      case ExprKind::kMax: {
        const auto* node = static_cast<const BinaryNode*>(expr.get());
        ConstIntBound a = constIntBound(node->a);
        ConstIntBound b = constIntBound(node->b);
        switch (expr->kind()) {
          case ExprKind::kAdd:
            return {satAdd(a.minValue, b.minValue),
                    satAdd(a.maxValue, b.maxValue)};
          case ExprKind::kSub:
            return {satAdd(a.minValue, satMul(-1, b.maxValue)),
                    satAdd(a.maxValue, satMul(-1, b.minValue))};
          case ExprKind::kMul: {
            int64_t candidates[4] = {satMul(a.minValue, b.minValue),
                                     satMul(a.minValue, b.maxValue),
                                     satMul(a.maxValue, b.minValue),
                                     satMul(a.maxValue, b.maxValue)};
            return {*std::min_element(candidates, candidates + 4),
                    *std::max_element(candidates, candidates + 4)};
          }
          case ExprKind::kFloorDiv: {
            if (b.isPoint() && b.minValue > 0) {
                int64_t d = b.minValue;
                auto fd = [d](int64_t v) {
                    return isInf(v) ? v : floorDiv(v, d);
                };
                return {fd(a.minValue), fd(a.maxValue)};
            }
            return ConstIntBound::everything();
          }
          case ExprKind::kFloorMod: {
            if (b.isPoint() && b.minValue > 0) {
                if (a.minValue >= 0 && !isInf(a.maxValue) &&
                    a.maxValue < b.minValue) {
                    return a; // already reduced
                }
                return {0, b.minValue - 1};
            }
            return ConstIntBound::everything();
          }
          case ExprKind::kMin:
            return {std::min(a.minValue, b.minValue),
                    std::min(a.maxValue, b.maxValue)};
          case ExprKind::kMax:
            return {std::max(a.minValue, b.minValue),
                    std::max(a.maxValue, b.maxValue)};
          default:
            break;
        }
        return ConstIntBound::everything();
      }
      default:
        return ConstIntBound::everything();
    }
}

std::optional<int64_t>
Analyzer::upperBound(const PrimExpr& expr)
{
    ConstIntBound bound = constIntBound(simplify(expr));
    if (bound.maxValue == ConstIntBound::kPosInf) return std::nullopt;
    return bound.maxValue;
}

} // namespace relax

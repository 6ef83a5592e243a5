#include "adl/expr.hpp"

#include <initializer_list>
#include <string_view>

namespace dpma::adl {
namespace {

/// Concatenation by appends.  GCC 12 at -O3 reports a false -Wrestrict
/// overlap inside `"(" + std::string&&`, which breaks -DDPMA_WERROR=ON
/// Release builds; appending to one string does not trigger it.
std::string concat(std::initializer_list<std::string_view> parts) {
    std::string out;
    for (const std::string_view part : parts) out += part;
    return out;
}

}  // namespace

ExprPtr Expr::constant(long value) {
    auto node = std::make_shared<Expr>();
    node->kind_ = Kind::Const;
    node->value_ = value;
    return node;
}

ExprPtr Expr::param(std::size_t index, std::string name) {
    auto node = std::make_shared<Expr>();
    node->kind_ = Kind::Param;
    node->param_ = index;
    node->name_ = std::move(name);
    return node;
}

ExprPtr Expr::binary(Kind op, ExprPtr lhs, ExprPtr rhs) {
    DPMA_REQUIRE(op != Kind::Const && op != Kind::Param, "binary() needs an operator kind");
    DPMA_REQUIRE(lhs != nullptr && rhs != nullptr, "binary() needs two operands");
    auto node = std::make_shared<Expr>();
    node->kind_ = op;
    node->lhs_ = std::move(lhs);
    node->rhs_ = std::move(rhs);
    return node;
}

long Expr::eval(std::span<const long> params) const {
    switch (kind_) {
        case Kind::Const: return value_;
        case Kind::Param:
            DPMA_REQUIRE(param_ < params.size(), "parameter index out of range: " + name_);
            return params[param_];
        case Kind::Add: return lhs_->eval(params) + rhs_->eval(params);
        case Kind::Sub: return lhs_->eval(params) - rhs_->eval(params);
        case Kind::Mul: return lhs_->eval(params) * rhs_->eval(params);
        case Kind::Div: {
            const long d = rhs_->eval(params);
            DPMA_REQUIRE(d != 0, "division by zero in behaviour expression");
            return lhs_->eval(params) / d;
        }
        case Kind::Mod: {
            const long d = rhs_->eval(params);
            DPMA_REQUIRE(d != 0, "modulo by zero in behaviour expression");
            return lhs_->eval(params) % d;
        }
    }
    throw Error("unknown expression kind");
}

std::string Expr::to_string() const {
    switch (kind_) {
        case Kind::Const: return std::to_string(value_);
        case Kind::Param: return name_.empty() ? concat({"p", std::to_string(param_)}) : name_;
        case Kind::Add: return concat({"(", lhs_->to_string(), " + ", rhs_->to_string(), ")"});
        case Kind::Sub: return concat({"(", lhs_->to_string(), " - ", rhs_->to_string(), ")"});
        case Kind::Mul: return concat({"(", lhs_->to_string(), " * ", rhs_->to_string(), ")"});
        case Kind::Div: return concat({"(", lhs_->to_string(), " / ", rhs_->to_string(), ")"});
        case Kind::Mod: return concat({"(", lhs_->to_string(), " % ", rhs_->to_string(), ")"});
    }
    throw Error("unknown expression kind");
}

BoolExprPtr BoolExpr::always_true() {
    static const auto instance = std::make_shared<BoolExpr>();
    return instance;
}

BoolExprPtr BoolExpr::compare(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
    DPMA_REQUIRE(lhs != nullptr && rhs != nullptr, "compare() needs two operands");
    auto node = std::make_shared<BoolExpr>();
    node->kind_ = Kind::Cmp;
    node->op_ = op;
    node->cmp_lhs_ = std::move(lhs);
    node->cmp_rhs_ = std::move(rhs);
    return node;
}

BoolExprPtr BoolExpr::conj(BoolExprPtr lhs, BoolExprPtr rhs) {
    auto node = std::make_shared<BoolExpr>();
    node->kind_ = Kind::And;
    node->lhs_ = std::move(lhs);
    node->rhs_ = std::move(rhs);
    return node;
}

BoolExprPtr BoolExpr::disj(BoolExprPtr lhs, BoolExprPtr rhs) {
    auto node = std::make_shared<BoolExpr>();
    node->kind_ = Kind::Or;
    node->lhs_ = std::move(lhs);
    node->rhs_ = std::move(rhs);
    return node;
}

BoolExprPtr BoolExpr::negate(BoolExprPtr sub) {
    auto node = std::make_shared<BoolExpr>();
    node->kind_ = Kind::Not;
    node->lhs_ = std::move(sub);
    return node;
}

bool BoolExpr::eval(std::span<const long> params) const {
    switch (kind_) {
        case Kind::True: return true;
        case Kind::Cmp: {
            const long a = cmp_lhs_->eval(params);
            const long b = cmp_rhs_->eval(params);
            switch (op_) {
                case CmpOp::Lt: return a < b;
                case CmpOp::Le: return a <= b;
                case CmpOp::Eq: return a == b;
                case CmpOp::Ne: return a != b;
                case CmpOp::Ge: return a >= b;
                case CmpOp::Gt: return a > b;
            }
            throw Error("unknown comparison");
        }
        case Kind::And: return lhs_->eval(params) && rhs_->eval(params);
        case Kind::Or: return lhs_->eval(params) || rhs_->eval(params);
        case Kind::Not: return !lhs_->eval(params);
    }
    throw Error("unknown guard kind");
}

std::string BoolExpr::to_string() const {
    switch (kind_) {
        case Kind::True: return "true";
        case Kind::Cmp: {
            const char* ops[] = {"<", "<=", "==", "!=", ">=", ">"};
            return concat({cmp_lhs_->to_string(), " ", ops[static_cast<int>(op_)], " ",
                           cmp_rhs_->to_string()});
        }
        case Kind::And: return concat({"(", lhs_->to_string(), " && ", rhs_->to_string(), ")"});
        case Kind::Or: return concat({"(", lhs_->to_string(), " || ", rhs_->to_string(), ")"});
        case Kind::Not: return concat({"!(", lhs_->to_string(), ")"});
    }
    throw Error("unknown guard kind");
}

}  // namespace dpma::adl

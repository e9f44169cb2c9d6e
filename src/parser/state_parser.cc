#include "parser/state_parser.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <variant>
#include <vector>

#include "parser/lexer.h"
#include "support/status_macros.h"

namespace oocq {

namespace {

/// One attribute value before name resolution.
struct ValueExpr {
  enum class Kind { kNull, kInt, kReal, kString, kName, kSet };
  Kind kind = Kind::kNull;
  int64_t int_value = 0;
  double real_value = 0;
  std::string text;               // String contents or object name.
  std::vector<ValueExpr> elements;  // Set members (non-set kinds only).
};

struct AttrAssign {
  std::string attr;
  ValueExpr value;
};

struct ObjectDecl {
  std::string name;
  std::string class_name;
  std::vector<AttrAssign> attrs;
};

class StateParser {
 public:
  StateParser(const Schema* schema, std::vector<Token> tokens)
      : schema_(schema), tokens_(std::move(tokens)) {}

  StatusOr<State> Run() {
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kState));
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    std::vector<ObjectDecl> decls;
    while (!ConsumeIf(TokenKind::kRBrace)) {
      ObjectDecl decl;
      OOCQ_RETURN_IF_ERROR(ParseObjectDecl(&decl));
      decls.push_back(std::move(decl));
    }
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return Build(decls);
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Consume() { return tokens_[pos_ == tokens_.size() - 1 ? pos_ : pos_++]; }
  bool ConsumeIf(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Consume();
    return true;
  }
  Status Expect(TokenKind kind, Token* out = nullptr) {
    if (Peek().kind != kind) {
      return Error("expected " + TokenKindToString(kind) + ", found " +
                   TokenKindToString(Peek().kind));
    }
    Token token = Consume();
    if (out != nullptr) *out = std::move(token);
    return Status::Ok();
  }
  Status Error(const std::string& message) const {
    const Token& t = Peek();
    return Status::InvalidArgument("state parse error at " +
                                   std::to_string(t.line) + ":" +
                                   std::to_string(t.column) + ": " + message);
  }

  Status ParseScalar(ValueExpr* out) {
    switch (Peek().kind) {
      case TokenKind::kIntLit: {
        // std::from_chars: no exceptions, explicit overflow reporting.
        Token token = Consume();
        out->kind = ValueExpr::Kind::kInt;
        auto [ptr, ec] = std::from_chars(
            token.text.data(), token.text.data() + token.text.size(),
            out->int_value);
        if (ec != std::errc() || ptr != token.text.data() + token.text.size()) {
          return Status::InvalidArgument("integer literal '" + token.text +
                                         "' out of range");
        }
        return Status::Ok();
      }
      case TokenKind::kRealLit: {
        Token token = Consume();
        out->kind = ValueExpr::Kind::kReal;
        auto [ptr, ec] = std::from_chars(
            token.text.data(), token.text.data() + token.text.size(),
            out->real_value);
        if (ec != std::errc() || ptr != token.text.data() + token.text.size()) {
          return Status::InvalidArgument("real literal '" + token.text +
                                         "' out of range");
        }
        return Status::Ok();
      }
      case TokenKind::kStringLit:
        out->kind = ValueExpr::Kind::kString;
        out->text = Consume().text;
        return Status::Ok();
      case TokenKind::kIdent:
        out->kind = ValueExpr::Kind::kName;
        out->text = Consume().text;
        return Status::Ok();
      default:
        return Error("expected a literal or object name");
    }
  }

  Status ParseValue(ValueExpr* out) {
    if (ConsumeIf(TokenKind::kNull)) {
      out->kind = ValueExpr::Kind::kNull;
      return Status::Ok();
    }
    if (ConsumeIf(TokenKind::kLBrace)) {
      out->kind = ValueExpr::Kind::kSet;
      if (!ConsumeIf(TokenKind::kRBrace)) {
        do {
          ValueExpr element;
          OOCQ_RETURN_IF_ERROR(ParseScalar(&element));
          out->elements.push_back(std::move(element));
        } while (ConsumeIf(TokenKind::kComma));
        OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
      }
      return Status::Ok();
    }
    return ParseScalar(out);
  }

  Status ParseObjectDecl(ObjectDecl* decl) {
    Token name;
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &name));
    decl->name = name.text;
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    Token cls;
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &cls));
    decl->class_name = cls.text;
    OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (!ConsumeIf(TokenKind::kRBrace)) {
      Token attr;
      OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &attr));
      OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kEq));
      AttrAssign assign;
      assign.attr = attr.text;
      OOCQ_RETURN_IF_ERROR(ParseValue(&assign.value));
      OOCQ_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      decl->attrs.push_back(std::move(assign));
    }
    return Status::Ok();
  }

  StatusOr<Oid> ResolveScalar(State& state,
                              const std::map<std::string, Oid>& by_name,
                              const ValueExpr& value) {
    switch (value.kind) {
      case ValueExpr::Kind::kInt:
        return state.InternInt(value.int_value);
      case ValueExpr::Kind::kReal:
        return state.InternReal(value.real_value);
      case ValueExpr::Kind::kString:
        return state.InternString(value.text);
      case ValueExpr::Kind::kName: {
        auto it = by_name.find(value.text);
        if (it == by_name.end()) {
          return Status::NotFound("undeclared object '" + value.text + "'");
        }
        return it->second;
      }
      default:
        return Status::Internal("non-scalar value in scalar position");
    }
  }

  StatusOr<State> Build(const std::vector<ObjectDecl>& decls) {
    State state(schema_);
    // Pass 1: create every object so forward references resolve.
    std::map<std::string, Oid> by_name;
    for (const ObjectDecl& decl : decls) {
      if (by_name.count(decl.name) > 0) {
        return Status::InvalidArgument("object '" + decl.name +
                                       "' declared twice");
      }
      OOCQ_ASSIGN_OR_RETURN(ClassId cls, schema_->FindClass(decl.class_name));
      OOCQ_ASSIGN_OR_RETURN(Oid oid, state.AddObject(cls));
      by_name[decl.name] = oid;
    }
    // Pass 2: attribute slots.
    for (const ObjectDecl& decl : decls) {
      Oid oid = by_name.at(decl.name);
      for (const AttrAssign& assign : decl.attrs) {
        Value value;
        switch (assign.value.kind) {
          case ValueExpr::Kind::kNull:
            value = Value::Null();
            break;
          case ValueExpr::Kind::kSet: {
            std::vector<Oid> members;
            for (const ValueExpr& element : assign.value.elements) {
              OOCQ_ASSIGN_OR_RETURN(Oid member,
                                    ResolveScalar(state, by_name, element));
              members.push_back(member);
            }
            value = Value::Set(std::move(members));
            break;
          }
          default: {
            OOCQ_ASSIGN_OR_RETURN(Oid target,
                                  ResolveScalar(state, by_name, assign.value));
            value = Value::Ref(target);
            break;
          }
        }
        OOCQ_RETURN_IF_ERROR(
            state.SetAttribute(oid, assign.attr, std::move(value)));
      }
    }
    OOCQ_RETURN_IF_ERROR(state.Validate());
    return state;
  }

  const Schema* schema_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

std::string EscapeString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

StatusOr<State> ParseState(const Schema* schema, std::string_view text) {
  OOCQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  StateParser parser(schema, std::move(tokens));
  return parser.Run();
}

std::string StateToString(const State& state) {
  const Schema& schema = state.schema();
  // Primitive objects are inlined as literals at their use sites.
  auto scalar = [&](Oid oid) -> std::string {
    const State::Payload& payload = state.payload(oid);
    if (const int64_t* i = std::get_if<int64_t>(&payload)) {
      return std::to_string(*i);
    }
    if (const double* d = std::get_if<double>(&payload)) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", *d);
      std::string text = buffer;
      // The grammar requires a decimal point for Real literals.
      if (text.find('.') == std::string::npos) text += ".0";
      return text;
    }
    if (const std::string* s = std::get_if<std::string>(&payload)) {
      return EscapeString(*s);
    }
    return std::string("o").append(std::to_string(oid));
  };

  std::string out = "state {\n";
  for (Oid oid = 0; oid < state.num_objects(); ++oid) {
    ClassId cls = state.class_of(oid);
    if (cls < kNumBuiltinClasses) continue;
    out += "  o" + std::to_string(oid) + ": " + schema.class_name(cls) + " {";
    bool any = false;
    for (const AttributeDef& attr : schema.class_info(cls).all_attributes) {
      const Value* value = state.GetAttribute(oid, attr.name);
      if (value == nullptr || value->is_null()) continue;
      any = true;
      out += " " + attr.name + " = ";
      if (value->kind() == Value::Kind::kRef) {
        out += scalar(value->ref());
      } else {
        out += "{";
        for (size_t i = 0; i < value->set().size(); ++i) {
          if (i > 0) out += ",";
          out.append(" ").append(scalar(value->set()[i]));
        }
        out += value->set().empty() ? "}" : " }";
      }
      out += ";";
    }
    out += any ? " }\n" : " }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace oocq

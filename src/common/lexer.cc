#include "common/lexer.h"

#include <algorithm>
#include <cctype>

#include "common/str_util.h"

namespace raqlet {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

class LexerImpl {
 public:
  LexerImpl(const std::string& source, const LexerConfig& config)
      : src_(source), config_(config) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= src_.size()) {
        out.push_back(Token{Token::kEof, "", line_, col_});
        return out;
      }
      int line = line_;
      int col = col_;
      char c = src_[pos_];
      if (IsIdentStart(c)) {
        std::string ident;
        while (pos_ < src_.size() && IsIdentChar(src_[pos_])) {
          ident.push_back(Take());
        }
        out.push_back(Token{Token::kIdent, std::move(ident), line, col});
        continue;
      }
      if (IsDigit(c)) {
        std::string num;
        bool is_float = false;
        while (pos_ < src_.size() &&
               (IsDigit(src_[pos_]) || src_[pos_] == '.')) {
          if (src_[pos_] == '.') {
            // ".." (range punctuation), a trailing '.' (a rule terminator)
            // and a second '.' all end the number.
            if (is_float || pos_ + 1 >= src_.size() ||
                !IsDigit(src_[pos_ + 1])) {
              break;
            }
            is_float = true;
          }
          num.push_back(Take());
        }
        out.push_back(Token{is_float ? Token::kFloat : Token::kNumber,
                            std::move(num), line, col});
        continue;
      }
      if (c == '"') {
        Take();
        std::string text;
        while (pos_ < src_.size() && src_[pos_] != '"') {
          if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
            Take();
            char esc = Take();
            text.push_back(esc == 'n' ? '\n' : esc == 't' ? '\t' : esc);
            continue;
          }
          text.push_back(Take());
        }
        if (pos_ >= src_.size()) {
          return Status::ParseError("unterminated string at line " +
                                    std::to_string(line));
        }
        Take();
        out.push_back(Token{Token::kString, std::move(text), line, col});
        continue;
      }
      std::string punct = MatchPunct();
      if (!punct.empty()) {
        for (size_t i = 0; i < punct.size(); ++i) Take();
        out.push_back(Token{Token::kPunct, std::move(punct), line, col});
        continue;
      }
      return Status::ParseError("unexpected character '" + std::string(1, c) +
                                "' at line " + std::to_string(line) + ", col " +
                                std::to_string(col));
    }
  }

 private:
  std::string MatchPunct() const {
    for (const std::string& punct : config_.multi_char_puncts) {
      if (src_.compare(pos_, punct.size(), punct) == 0) return punct;
    }
    if (config_.single_puncts.find(src_[pos_]) != std::string::npos) {
      return std::string(1, src_[pos_]);
    }
    return "";
  }

  char Take() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  bool LookingAt(const char* two) const {
    return src_.compare(pos_, 2, two) == 0;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < src_.size()) {
      if (std::isspace(static_cast<unsigned char>(src_[pos_]))) {
        Take();
      } else if (LookingAt("//")) {
        while (pos_ < src_.size() && src_[pos_] != '\n') Take();
      } else if (LookingAt("/*")) {
        Take();
        Take();
        while (pos_ + 1 < src_.size() && !LookingAt("*/")) Take();
        if (pos_ + 1 < src_.size()) {
          Take();
          Take();
        }
      } else {
        break;
      }
    }
  }

  const std::string& src_;
  const LexerConfig& config_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& source,
                                    const LexerConfig& config) {
  LexerImpl impl(source, config);
  return impl.Run();
}

bool TokenCursor::MatchPunct(const std::string& text) {
  if (!PeekPunct(text)) return false;
  Advance();
  return true;
}

Status TokenCursor::ExpectPunct(const std::string& text) {
  if (MatchPunct(text)) return Status::OK();
  return Errorf("expected '" + text + "'");
}

bool TokenCursor::PeekKeyword(const std::string& upper, int ahead) const {
  const Token& t = Peek(ahead);
  return t.kind == Token::kIdent &&
         std::equal(t.text.begin(), t.text.end(), upper.begin(), upper.end(),
                    [](char a, char b) {
                      return std::toupper(static_cast<unsigned char>(a)) == b;
                    });
}

bool TokenCursor::MatchKeyword(const std::string& upper) {
  if (!PeekKeyword(upper)) return false;
  Advance();
  return true;
}

Status TokenCursor::ExpectKeyword(const std::string& upper) {
  if (MatchKeyword(upper)) return Status::OK();
  return Errorf("expected " + upper);
}

Result<std::string> TokenCursor::ExpectIdent() {
  if (Peek().kind != Token::kIdent) return Errorf("expected identifier");
  return Advance().text;
}

Result<int64_t> TokenCursor::ExpectNumber(int64_t max) {
  if (Peek().kind != Token::kNumber) return Errorf("expected number");
  Result<int64_t> value = ParseInt(Peek().text);
  if (!value.ok() || *value > max) return Errorf("number out of range");
  Advance();
  return value;
}

Result<double> TokenCursor::ExpectFloat() {
  if (Peek().kind != Token::kFloat) return Errorf("expected float");
  Result<double> value = ParseFloat(Peek().text);
  if (!value.ok()) return Errorf("float out of range");
  Advance();
  return value;
}

Status TokenCursor::Errorf(const std::string& what) const {
  const Token& t = Peek();
  return Status::ParseError(what + " at line " + std::to_string(t.line) +
                            ", col " + std::to_string(t.col) + " (got '" +
                            (t.kind == Token::kEof ? "<eof>" : t.text) + "')");
}

}  // namespace raqlet

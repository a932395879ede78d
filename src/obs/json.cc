#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace coterie::obs {

namespace {

const Json kNull{};

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; telemetry values are clamped upstream,
        // so this is a belt-and-braces fallback, not a code path.
        out += "null";
        return;
    }
    char buf[40];
    // Integers (the common case: counts, ticks) print exactly;
    // %.17g round-trips every other double.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    out += buf;
}

/**
 * Deepest array/object nesting parse() accepts. The recursive descent
 * spends stack frames per level, so unbounded input depth would
 * overflow the stack; the repo's own documents nest about 5 deep.
 */
constexpr int kMaxDepth = 256;

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    Json run()
    {
        Json v = parseValue();
        skipWs();
        if (!failed_ && pos_ != text_.size())
            fail("trailing characters after document");
        return failed_ ? Json() : v;
    }

  private:
    void
    fail(const std::string &msg)
    {
        if (!failed_ && error_)
            *error_ = msg + " at offset " + std::to_string(pos_);
        failed_ = true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of document");
            return {};
        }
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth) {
                fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
                return {};
            }
            ++depth_;
            Json v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json(parseString());
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return {};
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber();
        fail(std::string("unexpected character '") + c + "'");
        return {};
    }

    /** Consume [0-9]+; false when no digit is next. */
    bool
    digits()
    {
        const std::size_t begin = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ > begin;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and finite. */
    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        consume('-');
        bool ok = consume('0') || digits();
        if (ok && consume('.'))
            ok = digits();
        if (ok && (consume('e') || consume('E'))) {
            if (!consume('+'))
                consume('-');
            ok = digits();
        }
        // strtod reads further than the grammar on a leading zero
        // ("01", "0x10"): that is not a JSON number either.
        char *end = nullptr;
        const double v = ok ? std::strtod(text_.c_str() + start, &end) : 0.0;
        if (!ok || end != text_.c_str() + pos_) {
            fail("malformed number");
            return {};
        }
        if (!std::isfinite(v)) {
            fail("number out of range");
            return {};
        }
        return Json(v);
    }

    std::string
    parseString()
    {
        std::string out;
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return out;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad \\u escape digit");
                            return out;
                        }
                    }
                    // UTF-8 encode (BMP only; telemetry strings are
                    // ASCII, surrogate pairs are out of scope).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail(std::string("unknown escape '\\") + esc + "'");
                    return out;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    parseArray()
    {
        Json arr = Json::array();
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return arr;
        for (;;) {
            arr.push(parseValue());
            if (failed_)
                return arr;
            skipWs();
            if (consume(']'))
                return arr;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return arr;
            }
        }
    }

    Json
    parseObject()
    {
        Json obj = Json::object();
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return obj;
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected string key in object");
                return obj;
            }
            std::string key = parseString();
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return obj;
            }
            obj.set(key, parseValue());
            if (failed_)
                return obj;
            skipWs();
            if (consume('}'))
                return obj;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return obj;
            }
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    bool failed_ = false;
};

} // namespace

const Json &
Json::at(const std::string &key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return v;
    return kNull;
}

bool
Json::contains(const std::string &key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return true;
    return false;
}

Json &
Json::push(Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    items_.push_back(std::move(value));
    return *this;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    for (auto &[k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    const auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case Type::Null: out += "null"; break;
      case Type::Bool: out += bool_ ? "true" : "false"; break;
      case Type::Number: appendNumber(out, num_); break;
      case Type::String: appendEscaped(out, str_); break;
      case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        if (!items_.empty())
            newline(depth);
        out += ']';
        break;
      case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            appendEscaped(out, members_[i].first);
            out += pretty ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!members_.empty())
            newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Json
Json::parse(const std::string &text, std::string *error)
{
    return Parser(text, error).run();
}

} // namespace coterie::obs

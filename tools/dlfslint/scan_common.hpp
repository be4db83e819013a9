// Scanning utilities for dlfslint.cpp. Zero-dependency, AST-less:
// comment/literal stripping that preserves byte offsets, a line index,
// and small token / bracket helpers. Header-only on purpose — the lint is
// a single-file build in CI (`g++ -o dlfslint tools/dlfslint/dlfslint.cpp`).
#pragma once

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace lintcommon {

// Replaces comments and string/char literals with spaces, preserving
// every byte position and newline so offsets map 1:1 to the original.
inline std::string strip_comments_and_literals(const std::string& src) {
  std::string out(src.size(), ' ');
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto copy_nl = [&](std::size_t at) {
    if (src[at] == '\n') out[at] = '\n';
  };
  while (i < n) {
    const char c = src[i];
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;  // newline handled next iteration
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        copy_nl(i);
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      // Raw string literal: R"delim( ... )delim"
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      const std::string close = ")" + delim + "\"";
      const std::size_t end = src.find(close, p);
      const std::size_t stop =
          end == std::string::npos ? n : end + close.size();
      for (std::size_t k = i; k < stop; ++k) copy_nl(k);
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char q = c;
      out[i] = q;  // keep the quote itself so tokens don't merge
      ++i;
      while (i < n && src[i] != q) {
        if (src[i] == '\\') {
          copy_nl(i);
          ++i;
          if (i < n) copy_nl(i);
          ++i;
          continue;
        }
        copy_nl(i);
        ++i;
      }
      if (i < n) {
        out[i] = q;
        ++i;
      }
      continue;
    }
    out[i] = c;
    ++i;
  }
  return out;
}

struct SourceFile {
  std::string path;
  std::string orig;
  std::string code;  // stripped
  std::vector<std::size_t> line_starts;

  void index_lines() {
    line_starts.clear();
    line_starts.push_back(0);
    for (std::size_t i = 0; i < orig.size(); ++i) {
      if (orig[i] == '\n') line_starts.push_back(i + 1);
    }
  }

  [[nodiscard]] int line_of(std::size_t off) const {
    const auto it =
        std::upper_bound(line_starts.begin(), line_starts.end(), off);
    return static_cast<int>(it - line_starts.begin());
  }
};

inline bool load(const std::string& path, SourceFile& f) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  f.path = path;
  f.orig = ss.str();
  f.code = strip_comments_and_literals(f.orig);
  f.index_lines();
  return true;
}

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

inline std::size_t skip_ws_back(const std::string& s, std::size_t i) {
  // Returns the index of the last non-ws char at or before i, or npos.
  while (i != std::string::npos &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    if (i == 0) return std::string::npos;
    --i;
  }
  return i;
}

// Matches a bracket pair forward; s[open] must be the opening char.
// Returns index of the matching closer, or npos.
inline std::size_t match_forward(const std::string& s, std::size_t open,
                                 char o, char c) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == o) ++depth;
    if (s[i] == c) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

// Matches a bracket pair backward; s[close] must be the closing char.
inline std::size_t match_backward(const std::string& s, std::size_t close,
                                  char o, char c) {
  int depth = 0;
  for (std::size_t i = close;; --i) {
    if (s[i] == c) ++depth;
    if (s[i] == o) {
      --depth;
      if (depth == 0) return i;
    }
    if (i == 0) break;
  }
  return std::string::npos;
}

inline bool contains_word(const std::string& s, const std::string& w) {
  std::size_t p = 0;
  while ((p = s.find(w, p)) != std::string::npos) {
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const std::size_t after = p + w.size();
    const bool right_ok = after >= s.size() || !ident_char(s[after]);
    if (left_ok && right_ok) return true;
    p += 1;
  }
  return false;
}

// Finds the next word-bounded occurrence of w at or after pos; npos if none.
inline std::size_t find_word(const std::string& s, const std::string& w,
                             std::size_t pos) {
  std::size_t p = pos;
  while ((p = s.find(w, p)) != std::string::npos) {
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const std::size_t after = p + w.size();
    const bool right_ok = after >= s.size() || !ident_char(s[after]);
    if (left_ok && right_ok) return p;
    p += 1;
  }
  return std::string::npos;
}

// Walks forward from `from` (typically just past a declaration's ';')
// and returns the offset of the '}' that closes the enclosing block —
// i.e. the first point where brace depth drops below the starting depth
// — or npos if the file ends first.
inline std::size_t enclosing_block_end(const std::string& code,
                                       std::size_t from) {
  int depth = 0;
  for (std::size_t i = from; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}') {
      --depth;
      if (depth < 0) return i;
    }
  }
  return std::string::npos;
}

}  // namespace lintcommon

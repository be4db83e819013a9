// dlfslint — multi-pass static-analysis suite for the dlfs tree
// (grown from the original corolint coroutine-lifetime lint).
//
// A lightweight AST-less scanner (comment/literal stripping + bracket
// matching; no libclang dependency) for the concurrency hazards this
// repository has actually been bitten by:
//
//   CL001  Task<> coroutine taking reference / string_view / span
//          parameters. The coroutine frame stores the *reference*; if the
//          caller's argument dies before the coroutine finishes (detached
//          coroutines, or frames outliving a full-expression), the frame
//          dangles. GCC 12 additionally miscompiles some such frames
//          outright (see spdk/nvmf.cpp probe()). Vetted sites — callers
//          that demonstrably co_await the task to completion within the
//          referents' lifetimes — belong in the allowlist.
//
//   CL002  Lambda coroutine capturing by reference. The lambda object is
//          destroyed once the full-expression ends, but the coroutine
//          frame keeps using its captures — by-reference captures then
//          dangle on the first resume.
//
//   CL003  Detached coroutine (spawn / spawn_daemon) built from a lambda
//          capturing `this` (or defaulting to it via [&] / [=]). The
//          daemon outlives scopes; unless the object's destructor
//          provably outlives the simulator drain, `this` dangles.
//
//   CL004  `if (!co_await ...)` / `while (!co_await ...)`: the negated
//          await-in-condition shape GCC 12 miscompiles (frame clobber).
//          Hoist the await into a named local first.
//
//   CL008  A braced temporary among a co_awaited call's arguments:
//          `co_await f(..., Name{...}, ...)`, member and qualified calls
//          included. g++ 12.2 destroys such a temporary twice: a coroutine
//          taking an aggregate with a std::vector member by value, awaited
//          as `co_await take(Agg{1, std::vector<int>(4), {}, true}, out)`
//          from another coroutine over sim/task.hpp, double-frees at -O1,
//          and ASan reports a heap-use-after-free where the read path once
//          had this shape. A named local moved in, a function-call prvalue,
//          or the same call outside a coroutine is clean; so is
//          `co_await Awaiter{...}`, where the braced temporary is the
//          awaited operand, not an argument. Fix: hoist the temporary into
//          a named local and move it in, as CL004 hoists an await.
//
//   CL005  Lock held across a suspension point, two passes:
//          (a) an AccessSlice variable live in scope at a co_await —
//              slices assert whole-method suspension-free critical
//              sections, so any await inside one is a DataRaceError
//              waiting for the right interleaving; the static pass
//              catches it without needing a test to interleave it.
//          (b) whole-repo lock-order cycles: every `co_await
//              X.lock()/.scoped_lock()` held (guard in scope / until
//              unlock) across a nested acquisition of Y records a static
//              X->Y edge; a cycle in the cross-file edge graph is
//              reported at each participating acquisition site. Unlike
//              the dynamic LockOrderGraph this needs no interleaving to
//              fire. sim::Mutex guards held across awaits with no nested
//              acquisition (e.g. the ext4 big-kernel-lock) are
//              deliberately NOT flagged — that is this codebase's
//              sanctioned pattern.
//
//   CL006  View/span escape: a span obtained from ViewBatch pieces /
//          bread_views stored into a member (trailing-underscore
//          convention), a static, or a member container. Views borrow
//          pinned prefetch chunks; once the lease releases them the
//          bytes are scribbled (scribble_on_free) — any stored span is a
//          use-after-free in waiting. Static complement to the dynamic
//          scribble check.
//
//   CL007  Detached daemon hygiene: every spawn_daemon call must pass an
//          explicit name (the watchdog names blocked coroutines — an
//          unnamed daemon is undiagnosable), and a daemon's infinite
//          loop (`for(;;)` / `while(true)`) whose only awaits are
//          delay() timers busy-spins the simulator instead of parking on
//          an Event / Channel / Semaphore; a parked daemon costs nothing
//          and lets an idle sim quiesce.
//
// Modes:
//   dlfslint [--allowlist FILE] PATH...       scan; exit 1 on findings
//          or stale allowlist entries (an entry matching no finding).
//   dlfslint --self-test FIXTURE_PATH...      verify the fixture corpus:
//          every `// DLFSLINT-EXPECT: CLxxx` marker must be matched by a
//          finding of that rule on the marked line, and no unexpected
//          findings may appear. Exit 1 on any mismatch.
//
// Suppressions:
//   - Allowlist lines: `CLxxx <path-suffix> <name>` where <name> is the
//     flagged function/variable name, `<lambda>` for lambda findings, or
//     `*` for every finding of that rule in the file. `#` starts a
//     comment. Entries that no longer match any finding are themselves
//     errors (stale-allowlist gate) so suppressions cannot outlive the
//     code they excused.
//   - Inline: a `// DLFSLINT-ALLOW: CLxxx[,CLyyy]` comment suppresses
//     those rules on its own line (or, when the comment is a line of its
//     own, on the next line). For deliberate violations that live next
//     to the code they annotate — e.g. tests that prove the dynamic
//     checkers fire.

#include <iostream>
#include <map>
#include <set>

#include "scan_common.hpp"

// Directory components the tree scan skips (the deliberately-bad corpus).
#if __has_include(<filesystem>)
#include <filesystem>
#endif

namespace {

namespace fs = std::filesystem;
using lintcommon::SourceFile;
using lintcommon::contains_word;
using lintcommon::enclosing_block_end;
using lintcommon::find_word;
using lintcommon::ident_char;
using lintcommon::match_backward;
using lintcommon::match_forward;
using lintcommon::skip_ws;
using lintcommon::skip_ws_back;

struct Finding {
  std::string rule;
  std::string file;  // as passed / discovered
  int line = 0;
  std::string name;  // function name or "<lambda>"
  std::string message;
};

struct AllowEntry {
  std::string rule;
  std::string file_suffix;
  std::string name;  // "*" = any
};

// A statically-recorded lock-order edge: `from` was held while `to` was
// acquired, at file:line. Collected across every scanned file, then fed
// to the cycle pass.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
};

bool has_coroutine_keyword(const std::string& body) {
  return contains_word(body, "co_await") || contains_word(body, "co_return") ||
         contains_word(body, "co_yield");
}

// What makes a parameter list hazardous for a coroutine.
std::string param_hazard(const std::string& params) {
  if (params.find('&') != std::string::npos) return "reference parameter";
  if (params.find("string_view") != std::string::npos) {
    return "string_view parameter";
  }
  std::size_t p = 0;
  while ((p = params.find("span", p)) != std::string::npos) {
    const bool left_ok = p == 0 || !ident_char(params[p - 1]);
    const std::size_t after = skip_ws(params, p + 4);
    if (left_ok && after < params.size() && params[after] == '<') {
      return "span parameter";
    }
    ++p;
  }
  return {};
}

std::vector<std::string> split_captures(const std::string& caps) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (const char c : caps) {
    if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    cur += c;
  }
  out.push_back(cur);
  for (auto& t : out) {
    const std::size_t b = t.find_first_not_of(" \t\n");
    const std::size_t e = t.find_last_not_of(" \t\n");
    t = b == std::string::npos ? std::string{} : t.substr(b, e - b + 1);
  }
  return out;
}

// Splits a call argument list at top-level commas (()[]{} only — '<'
// would misfire on comparisons).
std::vector<std::pair<std::size_t, std::string>> split_args(
    const std::string& args) {
  std::vector<std::pair<std::size_t, std::string>> out;
  int depth = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= args.size(); ++i) {
    const char c = i < args.size() ? args[i] : ',';
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.emplace_back(begin, args.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  // Trim; drop a lone empty tail (e.g. `f()`).
  for (auto& [off, t] : out) {
    const std::size_t b = t.find_first_not_of(" \t\n");
    const std::size_t e = t.find_last_not_of(" \t\n");
    if (b == std::string::npos) {
      t.clear();
    } else {
      off += b;
      t = t.substr(b, e - b + 1);
    }
  }
  while (!out.empty() && out.back().second.empty()) out.pop_back();
  return out;
}

// The identifier ending at (and including) position `end` in `s`;
// empty if s[end] is not an identifier char.
std::string ident_ending_at(const std::string& s, std::size_t end) {
  if (end >= s.size() || !ident_char(s[end])) return {};
  std::size_t b = end;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, end - b + 1);
}

// Forward to the ';' that ends the statement containing `from`,
// skipping nested brackets. npos if the file ends first.
std::size_t statement_end(const std::string& code, std::size_t from) {
  int depth = 0;
  for (std::size_t i = from; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') --depth;
    if (c == ';' && depth <= 0) return i;
  }
  return std::string::npos;
}

// Back to just past the ';', '{' or '}' that precedes the statement
// containing `at`.
std::size_t statement_begin(const std::string& code, std::size_t at) {
  for (std::size_t i = at; i > 0; --i) {
    const char c = code[i - 1];
    if (c == ';' || c == '{' || c == '}') return i;
  }
  return 0;
}

// --- rule scanners ----------------------------------------------------------

// Finds `Task <...>` occurrences; returns offset past the closing '>' or
// npos. `pos` points at the 'T' of a candidate "Task".
std::size_t task_template_end(const std::string& code, std::size_t pos) {
  if (pos > 0 && (ident_char(code[pos - 1]))) return std::string::npos;
  std::size_t p = skip_ws(code, pos + 4);
  if (p >= code.size() || code[p] != '<') return std::string::npos;
  int depth = 0;
  for (; p < code.size(); ++p) {
    if (code[p] == '<') ++depth;
    if (code[p] == '>') {
      --depth;
      if (depth == 0) return p + 1;
    }
  }
  return std::string::npos;
}

// CL001 for named functions/methods: `Task<...> name(args) ... {body}`.
void scan_named_coroutines(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  std::size_t pos = 0;
  while ((pos = code.find("Task", pos)) != std::string::npos) {
    const std::size_t after_tmpl = task_template_end(code, pos);
    if (after_tmpl == std::string::npos) {
      pos += 4;
      continue;
    }
    std::size_t p = skip_ws(code, after_tmpl);
    // Possibly-qualified identifier.
    std::size_t name_begin = p;
    while (p < code.size() && (ident_char(code[p]) || code[p] == ':')) ++p;
    if (p == name_begin) {
      pos = after_tmpl;
      continue;
    }
    std::string name = code.substr(name_begin, p - name_begin);
    p = skip_ws(code, p);
    if (p >= code.size() || code[p] != '(') {
      pos = after_tmpl;
      continue;
    }
    const std::size_t close = match_forward(code, p, '(', ')');
    if (close == std::string::npos) {
      pos = after_tmpl;
      continue;
    }
    const std::string params = code.substr(p + 1, close - p - 1);
    // Find the body start (or ';' for a declaration) at depth 0.
    std::size_t q = close + 1;
    std::size_t body_open = std::string::npos;
    while (q < code.size()) {
      const char c = code[q];
      if (c == ';') break;
      if (c == '{') {
        body_open = q;
        break;
      }
      if (c == '(') {  // e.g. noexcept(...)
        q = match_forward(code, q, '(', ')');
        if (q == std::string::npos) break;
      }
      ++q;
    }
    if (body_open == std::string::npos) {
      pos = close;
      continue;  // declaration only; the definition is scanned elsewhere
    }
    const std::size_t body_close = match_forward(code, body_open, '{', '}');
    if (body_close == std::string::npos) {
      pos = close;
      continue;
    }
    const std::string body =
        code.substr(body_open + 1, body_close - body_open - 1);
    if (has_coroutine_keyword(body)) {
      const std::string hazard = param_hazard(params);
      if (!hazard.empty()) {
        // Unqualify the name for reporting/allowlisting.
        const std::size_t colon = name.rfind("::");
        if (colon != std::string::npos) name = name.substr(colon + 2);
        out.push_back({"CL001", f.path, f.line_of(name_begin), name,
                       "coroutine '" + name + "' takes a " + hazard +
                           "; the frame outlives the full-expression and the "
                           "referent may dangle (hoist to a by-value param)"});
      }
    }
    pos = close;
  }
}

// CL001/CL002 for lambda coroutines: `[caps](params) ... -> Task<...>`.
void scan_lambda_coroutines(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  std::size_t pos = 0;
  while ((pos = code.find("->", pos)) != std::string::npos) {
    const std::size_t arrow = pos;
    pos += 2;
    std::size_t p = skip_ws(code, arrow + 2);
    // Accept `Task<`, `dlsim::Task<`, `sim::Task<`, ...
    std::size_t t = p;
    while (t < code.size() && (ident_char(code[t]) || code[t] == ':')) ++t;
    const std::string ret = code.substr(p, t - p);
    const bool is_task = ret == "Task" || (ret.size() > 4 &&
                                           ret.compare(ret.size() - 4, 4,
                                                       "Task") == 0 &&
                                           ret[ret.size() - 5] == ':');
    if (!is_task) continue;
    if (task_template_end(code, t - 4) == std::string::npos) continue;
    // Backtrack over the parameter list.
    std::size_t b = skip_ws_back(code, arrow - 1);
    if (b == std::string::npos || code[b] != ')') continue;
    const std::size_t open = match_backward(code, b, '(', ')');
    if (open == std::string::npos) continue;
    const std::string params = code.substr(open + 1, b - open - 1);
    std::size_t before = skip_ws_back(code, open == 0 ? 0 : open - 1);
    if (before == std::string::npos) continue;
    if (code[before] == ']') {
      // Lambda coroutine.
      const std::size_t cap_open = match_backward(code, before, '[', ']');
      if (cap_open == std::string::npos) continue;
      const std::string caps =
          code.substr(cap_open + 1, before - cap_open - 1);
      const int line = f.line_of(cap_open);
      for (const std::string& tok : split_captures(caps)) {
        if (tok.empty()) continue;
        if (tok[0] == '&' && tok.rfind("&&", 0) != 0) {
          out.push_back({"CL002", f.path, line, "<lambda>",
                         "lambda coroutine captures '" + tok +
                             "' by reference; the lambda object dies at the "
                             "end of the full-expression and the capture "
                             "dangles on the first resume"});
          break;
        }
      }
      const std::string hazard = param_hazard(params);
      if (!hazard.empty()) {
        out.push_back({"CL001", f.path, line, "<lambda>",
                       "lambda coroutine takes a " + hazard +
                           "; the frame outlives the full-expression and the "
                           "referent may dangle (pass by value / pointer)"});
      }
    } else if (ident_char(code[before])) {
      // Named function with a trailing return type: `auto f(...) -> Task<>`.
      std::size_t nb = before;
      while (nb > 0 && (ident_char(code[nb - 1]) || code[nb - 1] == ':')) --nb;
      std::string name = code.substr(nb, before - nb + 1);
      const std::size_t colon = name.rfind("::");
      if (colon != std::string::npos) name = name.substr(colon + 2);
      const std::string hazard = param_hazard(params);
      if (hazard.empty()) continue;
      // Only flag definitions that are actually coroutines.
      std::size_t q = t;
      while (q < code.size() && code[q] != '{' && code[q] != ';') ++q;
      if (q >= code.size() || code[q] != '{') continue;
      const std::size_t body_close = match_forward(code, q, '{', '}');
      if (body_close == std::string::npos) continue;
      if (!has_coroutine_keyword(code.substr(q + 1, body_close - q - 1))) {
        continue;
      }
      out.push_back({"CL001", f.path, f.line_of(nb), name,
                     "coroutine '" + name + "' takes a " + hazard +
                         "; the frame outlives the full-expression and the "
                         "referent may dangle (hoist to a by-value param)"});
    }
  }
}

// CL003: spawn()/spawn_daemon() of a lambda capturing `this` (or
// defaulting to capture it).
void scan_detached_this(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  for (const std::string fn : {"spawn_daemon", "spawn"}) {
    std::size_t pos = 0;
    while ((pos = code.find(fn, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += fn.size();
      const bool left_ok = start == 0 || !ident_char(code[start - 1]);
      const std::size_t after = skip_ws(code, start + fn.size());
      if (!left_ok || after >= code.size() || code[after] != '(') continue;
      // `spawn` is a prefix of `spawn_daemon`; skip the daemon form here so
      // it is only reported once (the loop visits spawn_daemon first).
      if (fn == "spawn" && code.compare(start, 12, "spawn_daemon") == 0) {
        continue;
      }
      const std::size_t close = match_forward(code, after, '(', ')');
      if (close == std::string::npos) continue;
      const std::string args = code.substr(after + 1, close - after - 1);
      // Lambda intros within the call arguments.
      std::size_t lp = 0;
      while ((lp = args.find('[', lp)) != std::string::npos) {
        const std::size_t lclose = match_forward(args, lp, '[', ']');
        if (lclose == std::string::npos) break;
        const std::size_t nxt = skip_ws(args, lclose + 1);
        const bool looks_like_lambda =
            nxt < args.size() &&
            (args[nxt] == '(' || args[nxt] == '{' || args[nxt] == '<');
        if (looks_like_lambda) {
          for (const std::string& tok :
               split_captures(args.substr(lp + 1, lclose - lp - 1))) {
            if (tok == "this" || tok == "*this" || tok == "&" || tok == "=") {
              out.push_back(
                  {"CL003", f.path, f.line_of(after + 1 + lp), "<lambda>",
                   "detached coroutine (" + fn + ") captures '" + tok +
                       "'; the daemon may outlive the object — pass an "
                       "owning/liveness token instead"});
              break;
            }
          }
        }
        lp = lclose + 1;
      }
    }
  }
}

// CL004: `if (!co_await ...)` / `while (!co_await ...)`.
void scan_negated_await(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  for (const std::string kw : {"if", "while"}) {
    std::size_t pos = 0;
    while ((pos = code.find(kw, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += kw.size();
      const bool left_ok = start == 0 || !ident_char(code[start - 1]);
      if (!left_ok || start + kw.size() >= code.size() ||
          ident_char(code[start + kw.size()])) {
        continue;
      }
      std::size_t p = skip_ws(code, start + kw.size());
      if (p >= code.size() || code[p] != '(') continue;
      p = skip_ws(code, p + 1);
      if (p >= code.size() || code[p] != '!') continue;
      p = skip_ws(code, p + 1);
      if (p < code.size() && code[p] == '(') p = skip_ws(code, p + 1);
      if (p + 8 < code.size() && code.compare(p, 8, "co_await") == 0 &&
          !ident_char(code[p + 8])) {
        out.push_back({"CL004", f.path, f.line_of(start), kw,
                       "negated co_await inside a " + kw +
                           " condition — GCC 12 miscompiles this shape "
                           "(frame clobber); hoist the await into a named "
                           "local first"});
      }
    }
  }
}

// True when `arg` (one trimmed call argument) is a braced temporary
// `Name{...}`: a possibly qualified or templated name immediately
// followed by a braced initializer that ends the argument.
bool braced_temporary(const std::string& arg) {
  std::size_t i = arg.compare(0, 2, "::") == 0 ? 2 : 0;
  for (;;) {
    if (i >= arg.size() || !ident_char(arg[i]) ||
        std::isdigit(static_cast<unsigned char>(arg[i])) != 0) {
      return false;
    }
    while (i < arg.size() && ident_char(arg[i])) ++i;
    i = skip_ws(arg, i);
    if (i < arg.size() && arg[i] == '<') {
      const std::size_t close = match_forward(arg, i, '<', '>');
      if (close == std::string::npos) return false;
      i = skip_ws(arg, close + 1);
    }
    if (arg.compare(i, 2, "::") != 0) break;
    i = skip_ws(arg, i + 2);
  }
  if (i >= arg.size() || arg[i] != '{') return false;
  return match_forward(arg, i, '{', '}') == arg.size() - 1;
}

// CL008: `co_await f(..., Name{...}, ...)`. Walks the awaited operand —
// a chain of names, `.`/`->`/`::`, template arguments and calls — and
// checks the top-level arguments of every call in it. A braced operand
// (`co_await Awaiter{...}`) is skipped, not flagged.
void scan_braced_temporary_arg(const SourceFile& f,
                               std::vector<Finding>& out) {
  const std::string& code = f.code;
  const auto chain_continues = [&code](std::size_t q) {
    return q < code.size() &&
           (code[q] == '.' || code[q] == '(' || code[q] == ':' ||
            code[q] == '{' || code.compare(q, 2, "->") == 0);
  };
  std::size_t pos = 0;
  while ((pos = find_word(code, "co_await", pos)) != std::string::npos) {
    pos += 8;
    std::size_t p = skip_ws(code, pos);
    std::string callee;  // the name a '(' calls; empty after a call
    while (p < code.size()) {
      const char c = code[p];
      if (ident_char(c)) {
        const std::size_t b = p;
        while (p < code.size() && ident_char(code[p])) ++p;
        callee = code.substr(b, p - b);
      } else if (c == '.' || c == ':') {
        ++p;
      } else if (code.compare(p, 2, "->") == 0) {
        p += 2;
      } else if (c == '<' && !callee.empty()) {
        const std::size_t close = match_forward(code, p, '<', '>');
        if (close == std::string::npos ||
            !chain_continues(skip_ws(code, close + 1))) {
          break;
        }
        p = skip_ws(code, close + 1);
      } else if (c == '{' || c == '(') {
        const std::size_t close =
            match_forward(code, p, c, c == '{' ? '}' : ')');
        if (close == std::string::npos) break;
        if (c == '(' && !callee.empty()) {
          for (const auto& [off, arg] :
               split_args(code.substr(p + 1, close - p - 1))) {
            if (!braced_temporary(arg)) continue;
            out.push_back(
                {"CL008", f.path, f.line_of(p + 1 + off), callee,
                 "braced temporary '" + arg.substr(0, arg.find('{')) +
                     "{...}' passed to co_awaited call " + callee +
                     "() — g++ 12 destroys it twice; move a named local "
                     "in instead"});
          }
        }
        callee.clear();
        p = close + 1;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0 &&
                 chain_continues(skip_ws(code, p))) {
        p = skip_ws(code, p);
      } else {
        break;
      }
    }
  }
}

// CL005 pass (a): an AccessSlice variable live in scope at a co_await.
// Slices assert whole-method suspension-free critical sections
// (src/sim/check.hpp); an await while one is open is a data race waiting
// for the right interleaving.
void scan_slice_across_await(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  std::size_t pos = 0;
  while ((pos = find_word(code, "AccessSlice", pos)) != std::string::npos) {
    const std::size_t tok = pos;
    pos += 11;
    // Only variable declarations: `AccessSlice name{...};` / `(...)`.
    // The class definition (`class AccessSlice {`), ctor definitions
    // (`AccessSlice::AccessSlice(`), and parameter uses (`AccessSlice&`)
    // all lack the `<type> <ident>` shape.
    std::size_t p = skip_ws(code, tok + 11);
    const std::size_t name_begin = p;
    while (p < code.size() && ident_char(code[p])) ++p;
    if (p == name_begin) continue;
    const std::string var = code.substr(name_begin, p - name_begin);
    p = skip_ws(code, p);
    if (p >= code.size() ||
        (code[p] != '{' && code[p] != '(' && code[p] != '=')) {
      continue;
    }
    const std::size_t semi = statement_end(code, p);
    if (semi == std::string::npos) continue;
    std::size_t scope_end = enclosing_block_end(code, semi + 1);
    if (scope_end == std::string::npos) scope_end = code.size();
    const std::size_t aw = find_word(code, "co_await", semi + 1);
    if (aw != std::string::npos && aw < scope_end) {
      out.push_back(
          {"CL005", f.path, f.line_of(aw), var,
           "co_await while AccessSlice '" + var +
               "' is open — slices assert suspension-free critical "
               "sections; close the slice (own block) before awaiting"});
    }
  }
}

// CL005 pass (b), collection half: record every lock-order edge. A lock
// acquisition is `co_await <expr>.lock()` / `.scoped_lock()`; it is held
// from the end of its statement to the end of the enclosing block (or an
// explicit `<mutex>.unlock()` for bare lock()). Any acquisition of a
// *different* mutex inside that window records an edge, keyed by the
// mutex expression's final identifier (member granularity: an inversion
// between two members is a deadlock class regardless of instances).
struct Acquisition {
  std::size_t pos = 0;        // offset of the lock word
  std::string key;            // final identifier of the mutex expression
  std::size_t held_from = 0;  // just past the acquiring statement's ';'
  std::size_t held_to = 0;    // enclosing block end (or unlock)
};

void collect_lock_edges(const SourceFile& f, std::vector<LockEdge>& edges) {
  const std::string& code = f.code;
  std::vector<Acquisition> acqs;
  for (const std::string fn : {"scoped_lock", "lock"}) {
    std::size_t pos = 0;
    while ((pos = find_word(code, fn, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += fn.size();
      const std::size_t after = skip_ws(code, start + fn.size());
      if (after >= code.size() || code[after] != '(') continue;
      // Must be a member call: preceded by '.' or '->'.
      if (start == 0) continue;
      const char prev = code[start - 1];
      std::size_t expr_end;
      if (prev == '.') {
        expr_end = start - 2;
      } else if (prev == '>' && start >= 2 && code[start - 2] == '-') {
        expr_end = start - 3;
      } else {
        continue;
      }
      const std::string key = ident_ending_at(code, expr_end);
      if (key.empty()) continue;
      // Acquisition = awaited in this statement (parking mutexes are
      // only ever acquired via co_await).
      const std::size_t stmt = statement_begin(code, start);
      if (!contains_word(code.substr(stmt, start - stmt), "co_await")) {
        continue;
      }
      const std::size_t semi = statement_end(code, start);
      if (semi == std::string::npos) continue;
      std::size_t held_to = enclosing_block_end(code, semi + 1);
      if (held_to == std::string::npos) held_to = code.size();
      if (fn == "lock") {
        // A bare lock() releases at the matching unlock() if one exists
        // before the block ends.
        std::size_t u = semi;
        while ((u = find_word(code, "unlock", u + 1)) != std::string::npos &&
               u < held_to) {
          if (ident_ending_at(code, u >= 2 && code[u - 1] == '.'
                                        ? u - 2
                                        : (u >= 3 && code[u - 1] == '>' &&
                                                   code[u - 2] == '-'
                                               ? u - 3
                                               : std::string::npos)) == key) {
            held_to = u;
            break;
          }
        }
      }
      acqs.push_back({start, key, semi + 1, held_to});
    }
  }
  for (const Acquisition& outer : acqs) {
    for (const Acquisition& inner : acqs) {
      if (inner.pos <= outer.held_from || inner.pos >= outer.held_to) continue;
      if (inner.key == outer.key) continue;  // re-entrancy is the dynamic
                                             // checker's domain
      edges.push_back(
          {outer.key, inner.key, f.path, f.line_of(inner.pos)});
    }
  }
}

// CL005 pass (b), cycle half: an edge participates in a finding when its
// head can reach its tail through the whole-repo edge graph.
void lock_cycle_findings(const std::vector<LockEdge>& edges,
                         std::map<std::string, std::vector<Finding>>& out) {
  std::map<std::string, std::set<std::string>> adj;
  for (const LockEdge& e : edges) adj[e.from].insert(e.to);
  auto reaches = [&adj](const std::string& from, const std::string& to) {
    std::set<std::string> seen;
    std::vector<std::string> stack{from};
    while (!stack.empty()) {
      const std::string n = stack.back();
      stack.pop_back();
      if (!seen.insert(n).second) continue;
      if (n == to) return true;
      const auto it = adj.find(n);
      if (it == adj.end()) continue;
      for (const std::string& m : it->second) stack.push_back(m);
    }
    return false;
  };
  for (const LockEdge& e : edges) {
    if (!reaches(e.to, e.from)) continue;
    out[e.file].push_back(
        {"CL005", e.file, e.line, e.from + "->" + e.to,
         "lock-order edge '" + e.from + "' -> '" + e.to +
             "' completes a cycle across the tree — acquire sim::Mutexes "
             "in one global order (the dynamic LockOrderGraph only fires "
             "on an interleaving a test happens to run)"});
  }
}

// CL006: a span borrowed from ViewBatch pieces / bread_views stored
// somewhere that outlives the lease. Two shapes: assignment whose LHS is
// a member (trailing '_') or marked static, and container mutation on a
// member container (`spans_.push_back(s.pieces[0])`).
void scan_view_escape(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  for (const std::string marker : {"pieces", "bread_views"}) {
    std::size_t pos = 0;
    while ((pos = find_word(code, marker, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += marker.size();
      if (marker == "pieces") {
        // Only borrows (`x.pieces` / `x->pieces`), not the field decl.
        if (at == 0) continue;
        const char prev = code[at - 1];
        if (prev != '.' && prev != '>') continue;
      }
      const std::size_t stmt = statement_begin(code, at);
      const std::size_t semi = statement_end(code, at);
      if (semi == std::string::npos) continue;
      const std::string before = code.substr(stmt, at - stmt);
      // Shape 1: assignment with the marker on the RHS.
      std::size_t eq = std::string::npos;
      {
        int depth = 0;
        for (std::size_t i = stmt; i < at; ++i) {
          const char c = code[i];
          if (c == '(' || c == '{' || c == '[') ++depth;
          if (c == ')' || c == '}' || c == ']') --depth;
          if (c != '=' || depth != 0) continue;
          const char l = i > 0 ? code[i - 1] : ' ';
          const char r = i + 1 < code.size() ? code[i + 1] : ' ';
          if (l == '=' || l == '!' || l == '<' || l == '>' || l == '+' ||
              l == '-' || l == '*' || l == '/' || l == '%' || l == '&' ||
              l == '|' || l == '^' || r == '=') {
            continue;
          }
          eq = i;
          break;
        }
      }
      if (eq != std::string::npos) {
        const std::size_t lhs_last = skip_ws_back(code, eq - 1);
        const std::string lhs = ident_ending_at(code, lhs_last);
        const std::string lhs_text = code.substr(stmt, eq - stmt);
        const bool member = !lhs.empty() && lhs.back() == '_';
        const bool is_static = contains_word(lhs_text, "static");
        if (member || is_static) {
          out.push_back(
              {"CL006", f.path, f.line_of(at), lhs.empty() ? marker : lhs,
               std::string("span/batch from ") +
                   (marker == "pieces" ? "ViewBatch pieces" : "bread_views") +
                   " stored into " + (is_static ? "static '" : "member '") +
                   lhs +
                   "' which outlives the lease — the pinned chunks are "
                   "scribbled on release; copy the bytes or keep the view "
                   "inside the lease scope"});
          continue;
        }
      }
      // Shape 2: member-container mutation with the marker as argument.
      for (const std::string mut :
           {"push_back", "emplace_back", "insert", "push"}) {
        std::size_t mp = find_word(code, mut, stmt);
        bool hit = false;
        while (mp != std::string::npos && mp < at) {
          const std::size_t paren = skip_ws(code, mp + mut.size());
          if (paren < code.size() && code[paren] == '(') {
            const std::size_t close = match_forward(code, paren, '(', ')');
            if (close != std::string::npos && at > paren && at < close &&
                mp >= 2 && code[mp - 1] == '.') {
              // Receiver chain's first component decides ownership:
              // `spans_.push_back(...)` escapes, `vs.pieces.push_back`
              // builds a local.
              std::size_t rb = statement_begin(code, mp);
              rb = skip_ws(code, rb);
              const std::size_t rs = rb;
              while (rb < code.size() && ident_char(code[rb])) ++rb;
              const std::string recv = code.substr(rs, rb - rs);
              if (!recv.empty() && recv.back() == '_') {
                out.push_back(
                    {"CL006", f.path, f.line_of(at), recv,
                     "span from " +
                         std::string(marker == "pieces" ? "ViewBatch pieces"
                                                        : "bread_views") +
                         " inserted into member container '" + recv +
                         "' which outlives the lease — the pinned chunks "
                         "are scribbled on release; copy the bytes "
                         "instead"});
                hit = true;
                break;
              }
            }
          }
          mp = find_word(code, mut, mp + 1);
        }
        if (hit) break;
      }
    }
  }
}

// CL007 helpers: find infinite loops (`for(;;)` / `while(true|1)`) in a
// body and check each for a parking await. A loop whose only awaits are
// delay() calls polls the clock instead of parking on an Event/Channel/
// Semaphore — it keeps an idle sim from quiescing and burns virtual time.
bool loop_header_is_infinite(const std::string& inner) {
  std::string t;
  for (const char c : inner) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) t += c;
  }
  return t == ";;" || t == "true" || t == "1";
}

// Returns offsets of infinite-loop bodies [open, close) within `code`
// restricted to [begin, end).
std::vector<std::pair<std::size_t, std::size_t>> infinite_loops(
    const std::string& code, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const std::string kw : {"for", "while"}) {
    std::size_t pos = begin;
    while ((pos = find_word(code, kw, pos)) != std::string::npos &&
           pos < end) {
      const std::size_t head = pos;
      pos += kw.size();
      const std::size_t paren = skip_ws(code, head + kw.size());
      if (paren >= end || code[paren] != '(') continue;
      const std::size_t close = match_forward(code, paren, '(', ')');
      if (close == std::string::npos || close >= end) continue;
      if (!loop_header_is_infinite(
              code.substr(paren + 1, close - paren - 1))) {
        continue;
      }
      std::size_t body_open = skip_ws(code, close + 1);
      std::size_t body_close;
      if (body_open < end && code[body_open] == '{') {
        body_close = match_forward(code, body_open, '{', '}');
        if (body_close == std::string::npos || body_close > end) continue;
        ++body_open;
      } else {
        // Single-statement body: `for (;;) co_await tick();`
        body_close = statement_end(code, body_open);
        if (body_close == std::string::npos || body_close > end) continue;
      }
      out.emplace_back(body_open, body_close);
    }
  }
  return out;
}

// True when every co_await in [begin, end) awaits a delay(...) call and
// there is at least one.
bool loop_only_polls_clock(const std::string& code, std::size_t begin,
                           std::size_t end) {
  std::size_t pos = begin;
  bool any = false;
  while ((pos = find_word(code, "co_await", pos)) != std::string::npos &&
         pos < end) {
    any = true;
    const std::size_t p = pos + 8;
    pos = p;
    // The awaited call: the identifier directly before the first '(' of
    // the awaited expression.
    std::size_t paren = code.find('(', p);
    if (paren == std::string::npos || paren >= end) return false;
    const std::size_t callee_end = skip_ws_back(code, paren - 1);
    if (ident_ending_at(code, callee_end) != "delay") return false;
  }
  return any;
}

void check_daemon_loops(const SourceFile& f, std::size_t body_begin,
                        std::size_t body_end, const std::string& name,
                        std::vector<Finding>& out) {
  for (const auto& [lb, le] : infinite_loops(f.code, body_begin, body_end)) {
    if (loop_only_polls_clock(f.code, lb, le)) {
      out.push_back(
          {"CL007", f.path, f.line_of(lb), name,
           "daemon '" + name +
               "' busy-polls the clock (infinite loop whose only awaits "
               "are delay()); park on an Event/Channel/Semaphore so an "
               "idle sim can quiesce, or register the loop with "
               "run_watchdog"});
    }
  }
}

// Locates the body of `Task<...> [quals::]name(` in the same file;
// returns {begin, end} or {npos, npos}.
std::pair<std::size_t, std::size_t> find_coroutine_body(
    const std::string& code, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = code.find("Task", pos)) != std::string::npos) {
    const std::size_t after_tmpl = task_template_end(code, pos);
    if (after_tmpl == std::string::npos) {
      pos += 4;
      continue;
    }
    std::size_t p = skip_ws(code, after_tmpl);
    std::size_t name_begin = p;
    while (p < code.size() && (ident_char(code[p]) || code[p] == ':')) ++p;
    std::string fn = code.substr(name_begin, p - name_begin);
    const std::size_t colon = fn.rfind("::");
    if (colon != std::string::npos) fn = fn.substr(colon + 2);
    p = skip_ws(code, p);
    if (fn != name || p >= code.size() || code[p] != '(') {
      pos = after_tmpl;
      continue;
    }
    const std::size_t close = match_forward(code, p, '(', ')');
    if (close == std::string::npos) {
      pos = after_tmpl;
      continue;
    }
    std::size_t q = skip_ws(code, close + 1);
    if (q >= code.size() || code[q] != '{') {
      pos = close;
      continue;  // declaration
    }
    const std::size_t body_close = match_forward(code, q, '{', '}');
    if (body_close == std::string::npos) {
      pos = close;
      continue;
    }
    return {q + 1, body_close};
  }
  return {std::string::npos, std::string::npos};
}

// CL007: detached daemon hygiene. Every spawn_daemon call must pass an
// explicit name, and the spawned task's infinite loops must park (see
// check_daemon_loops). Bodies are resolved best-effort within the same
// file: inline lambdas and locally-defined Task<> coroutines.
void scan_daemon_hygiene(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& code = f.code;
  std::size_t pos = 0;
  while ((pos = find_word(code, "spawn_daemon", pos)) != std::string::npos) {
    const std::size_t start = pos;
    pos += 12;
    const std::size_t paren = skip_ws(code, start + 12);
    if (paren >= code.size() || code[paren] != '(') continue;
    const std::size_t close = match_forward(code, paren, '(', ')');
    if (close == std::string::npos) continue;
    const std::string args = code.substr(paren + 1, close - paren - 1);
    const auto parts = split_args(args);
    if (parts.empty()) continue;  // `spawn_daemon()` — not a call we know
    // The declaration itself (`Task<void> t, std::string name = {}`)
    // also has two parts; it is skipped because its first "argument"
    // is a parameter declaration, not a task expression — detected by
    // the `Task<` prefix.
    const std::string& a0 = parts[0].second;
    if (a0.rfind("Task", 0) == 0) continue;
    if (parts.size() < 2) {
      out.push_back(
          {"CL007", f.path, f.line_of(start), "<daemon>",
           "spawn_daemon without a name — the watchdog reports blocked "
           "coroutines by name; pass one so a wedged daemon is "
           "diagnosable"});
    }
    // Resolve the task body.
    const std::size_t a0_begin = paren + 1 + parts[0].first;
    if (!a0.empty() && a0[0] == '[') {
      // Inline lambda: body is the first top-level '{' after the intro.
      const std::size_t cap_close =
          match_forward(code, a0_begin, '[', ']');
      if (cap_close == std::string::npos) continue;
      std::size_t q = cap_close + 1;
      const std::size_t a0_end = a0_begin + a0.size();
      while (q < a0_end && code[q] != '{') {
        if (code[q] == '(') {
          q = match_forward(code, q, '(', ')');
          if (q == std::string::npos) break;
        }
        ++q;
      }
      if (q == std::string::npos || q >= a0_end) continue;
      const std::size_t body_close = match_forward(code, q, '{', '}');
      if (body_close == std::string::npos) continue;
      check_daemon_loops(f, q + 1, body_close, "<lambda>", out);
      continue;
    }
    // Named call: `daemon_loop(...)`, `obj.loop(...)` — take the callee.
    const std::size_t call_paren = [&]() {
      int depth = 0;
      for (std::size_t i = a0_begin; i < a0_begin + a0.size(); ++i) {
        const char c = code[i];
        if (c == '(' && depth == 0) return i;
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') --depth;
      }
      return std::string::npos;
    }();
    if (call_paren == std::string::npos) continue;
    const std::size_t callee_end = skip_ws_back(code, call_paren - 1);
    const std::string callee = ident_ending_at(code, callee_end);
    if (callee.empty() || callee == "move") continue;
    const auto [bb, be] = find_coroutine_body(code, callee);
    if (bb == std::string::npos) continue;  // defined elsewhere
    check_daemon_loops(f, bb, be, callee, out);
  }
}

// --- driver -----------------------------------------------------------------

// Inline suppressions: `// DLFSLINT-ALLOW: CLxxx[,CLyyy]` applies to its
// own line, or to the next line when the comment is a line of its own.
std::set<std::pair<std::string, int>> parse_inline_allows(
    const SourceFile& f) {
  std::set<std::pair<std::string, int>> out;
  std::istringstream ss(f.orig);
  std::string line;
  int ln = 0;
  static const std::string kMarker = "DLFSLINT-ALLOW:";
  while (std::getline(ss, line)) {
    ++ln;
    const std::size_t m = line.find(kMarker);
    if (m == std::string::npos) continue;
    const std::size_t first = line.find_first_not_of(" \t");
    const bool own_line =
        first != std::string::npos && line.compare(first, 2, "//") == 0;
    std::istringstream rs(line.substr(m + kMarker.size()));
    std::string rule;
    while (std::getline(rs, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t\r");
      if (b == std::string::npos) continue;
      out.insert({rule.substr(b, e - b + 1), own_line ? ln + 1 : ln});
    }
  }
  return out;
}

struct ScanOutput {
  // Per-file findings, keyed by path, inline suppressions already
  // applied. Includes whole-tree CL005 cycle findings.
  std::map<std::string, std::vector<Finding>> findings;
  int inline_suppressed = 0;
  bool ok = true;
};

ScanOutput scan_all(const std::vector<std::string>& files) {
  ScanOutput out;
  std::vector<LockEdge> edges;
  std::map<std::string, std::set<std::pair<std::string, int>>> allows;
  for (const std::string& path : files) {
    SourceFile f;
    if (!lintcommon::load(path, f)) {
      std::cerr << "dlfslint: cannot read " << path << "\n";
      out.ok = false;
      return out;
    }
    std::vector<Finding> fnd;
    scan_named_coroutines(f, fnd);
    scan_lambda_coroutines(f, fnd);
    scan_detached_this(f, fnd);
    scan_negated_await(f, fnd);
    scan_braced_temporary_arg(f, fnd);
    scan_slice_across_await(f, fnd);
    scan_view_escape(f, fnd);
    scan_daemon_hygiene(f, fnd);
    collect_lock_edges(f, edges);
    allows[path] = parse_inline_allows(f);
    out.findings[path] = std::move(fnd);
  }
  lock_cycle_findings(edges, out.findings);
  for (auto& [path, fnd] : out.findings) {
    const auto& allow = allows[path];
    std::vector<Finding> kept;
    for (Finding& x : fnd) {
      if (allow.contains({x.rule, x.line})) {
        ++out.inline_suppressed;
        continue;
      }
      kept.push_back(std::move(x));
    }
    std::sort(kept.begin(), kept.end(),
              [](const Finding& a, const Finding& b) {
                return a.line < b.line || (a.line == b.line && a.rule < b.rule);
              });
    fnd = std::move(kept);
  }
  return out;
}

bool source_like(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::vector<std::string> collect_sources(const std::vector<std::string>& roots,
                                         bool skip_fixtures) {
  std::vector<std::string> files;
  for (const std::string& r : roots) {
    if (fs::is_regular_file(r)) {
      files.push_back(r);
      continue;
    }
    if (!fs::is_directory(r)) {
      std::cerr << "dlfslint: no such path: " << r << "\n";
      continue;
    }
    for (const auto& e : fs::recursive_directory_iterator(r)) {
      if (!e.is_regular_file() || !source_like(e.path())) continue;
      const std::string s = e.path().string();
      if (skip_fixtures && s.find("dlfslint/fixtures") != std::string::npos) {
        continue;
      }
      files.push_back(s);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<AllowEntry> load_allowlist(const std::string& path) {
  std::vector<AllowEntry> entries;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "dlfslint: cannot read allowlist: " << path << "\n";
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ss(line);
    AllowEntry e;
    if (ss >> e.rule >> e.file_suffix >> e.name) entries.push_back(e);
  }
  return entries;
}

// Index of the first matching allowlist entry, or npos. Every match is
// recorded in `hits` so unmatched (stale) entries can be reported.
std::size_t allowlisted(const Finding& f, const std::vector<AllowEntry>& allow,
                        std::vector<int>& hits) {
  for (std::size_t i = 0; i < allow.size(); ++i) {
    const AllowEntry& e = allow[i];
    if (e.rule != f.rule) continue;
    if (f.file.size() < e.file_suffix.size() ||
        f.file.compare(f.file.size() - e.file_suffix.size(),
                       e.file_suffix.size(), e.file_suffix) != 0) {
      continue;
    }
    if (e.name == "*" || e.name == f.name) {
      ++hits[i];
      return i;
    }
  }
  return std::string::npos;
}

// Self-test: verify findings against `// DLFSLINT-EXPECT: CLxxx[,CLyyy]`
// markers. A marker on a line of its own applies to the next line.
int self_test(const std::vector<std::string>& files) {
  int failures = 0;
  const ScanOutput scanned = scan_all(files);
  if (!scanned.ok) return 2;
  for (const std::string& path : files) {
    SourceFile f;
    if (!lintcommon::load(path, f)) {
      std::cerr << "dlfslint: cannot read " << path << "\n";
      return 2;
    }
    const auto it = scanned.findings.find(path);
    const std::vector<Finding>& findings =
        it == scanned.findings.end() ? std::vector<Finding>{} : it->second;
    struct Expect {
      std::string rule;
      int line;
      bool hit = false;
    };
    std::vector<Expect> expects;
    std::istringstream ss(f.orig);
    std::string line;
    int ln = 0;
    static const std::string kMarker = "DLFSLINT-EXPECT:";
    while (std::getline(ss, line)) {
      ++ln;
      const std::size_t m = line.find(kMarker);
      if (m == std::string::npos) continue;
      const std::size_t first = line.find_first_not_of(" \t");
      const bool own_line =
          first != std::string::npos && line.compare(first, 2, "//") == 0;
      std::string rules = line.substr(m + kMarker.size());
      std::istringstream rs(rules);
      std::string rule;
      while (std::getline(rs, rule, ',')) {
        const std::size_t b = rule.find_first_not_of(" \t");
        const std::size_t e = rule.find_last_not_of(" \t\r");
        if (b == std::string::npos) continue;
        expects.push_back(
            {rule.substr(b, e - b + 1), own_line ? ln + 1 : ln, false});
      }
    }
    std::vector<bool> matched(findings.size(), false);
    for (Expect& ex : expects) {
      for (std::size_t i = 0; i < findings.size(); ++i) {
        if (!matched[i] && findings[i].rule == ex.rule &&
            findings[i].line == ex.line) {
          matched[i] = true;
          ex.hit = true;
          break;
        }
      }
      if (!ex.hit) {
        std::cerr << path << ":" << ex.line << ": MISSED expected " << ex.rule
                  << " finding\n";
        ++failures;
      }
    }
    for (std::size_t i = 0; i < findings.size(); ++i) {
      if (!matched[i]) {
        std::cerr << findings[i].file << ":" << findings[i].line
                  << ": UNEXPECTED " << findings[i].rule << " "
                  << findings[i].message << "\n";
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::cout << "dlfslint self-test: all fixture expectations matched\n";
    return 0;
  }
  std::cerr << "dlfslint self-test: " << failures << " mismatch(es)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string allowlist_path;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--allowlist") {
      if (++i >= argc) {
        std::cerr << "dlfslint: --allowlist needs a path\n";
        return 2;
      }
      allowlist_path = argv[i];
    } else if (a == "--self-test") {
      selftest = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: dlfslint [--allowlist FILE] PATH...\n"
                   "       dlfslint --self-test FIXTURE_PATH...\n";
      return 0;
    } else {
      roots.push_back(a);
    }
  }
  if (roots.empty()) {
    std::cerr << "dlfslint: no paths given (try --help)\n";
    return 2;
  }
  const std::vector<std::string> files =
      collect_sources(roots, /*skip_fixtures=*/!selftest);
  if (selftest) return self_test(files);

  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty()) allow = load_allowlist(allowlist_path);
  std::vector<int> hits(allow.size(), 0);
  int reported = 0;
  int suppressed = 0;
  const ScanOutput scanned = scan_all(files);
  if (!scanned.ok) return 2;
  for (const auto& [path, findings] : scanned.findings) {
    for (const Finding& finding : findings) {
      if (allowlisted(finding, allow, hits) != std::string::npos) {
        ++suppressed;
        continue;
      }
      std::cout << finding.file << ":" << finding.line << ": " << finding.rule
                << " [" << finding.name << "] " << finding.message << "\n";
      ++reported;
    }
  }
  // Stale-allowlist gate: a suppression that matches nothing is dead
  // weight at best and a masked regression at worst — either way the
  // entry must go when the code it excused does.
  int stale = 0;
  for (std::size_t i = 0; i < allow.size(); ++i) {
    if (hits[i] != 0) continue;
    std::cerr << "dlfslint: stale allowlist entry: " << allow[i].rule << " "
              << allow[i].file_suffix << " " << allow[i].name
              << " (matches no finding — remove it)\n";
    ++stale;
  }
  std::cout << "dlfslint: " << files.size() << " file(s), " << reported
            << " finding(s), " << suppressed << " allowlisted, "
            << scanned.inline_suppressed << " inline-allowed, " << stale
            << " stale allowlist entr" << (stale == 1 ? "y" : "ies") << "\n";
  return (reported == 0 && stale == 0) ? 0 : 1;
}

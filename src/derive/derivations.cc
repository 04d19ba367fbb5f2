#include "src/derive/derivations.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <unordered_set>

#include "src/util/string_util.h"

namespace spade {

namespace {

const std::unordered_set<std::string>& EnglishStopWords() {
  static const std::unordered_set<std::string> kWords = {
      "the",  "and",  "for",  "that", "with", "this", "from", "have",
      "has",  "was",  "were", "are",  "not",  "but",  "its",  "his",
      "her",  "they", "them", "been", "will", "would", "which", "their",
      "more", "over", "into", "also", "than", "when", "where", "who",
  };
  return kWords;
}

struct LangProfile {
  const char* name;
  std::vector<std::string> stopwords;
};

const std::vector<LangProfile>& LanguageProfiles() {
  static const std::vector<LangProfile> kProfiles = {
      {"English",
       {"the", "and", "of", "to", "in", "is", "was", "for", "with", "that"}},
      {"French",
       {"le", "la", "les", "de", "des", "et", "est", "une", "un", "dans",
        "pour", "que", "qui", "avec"}},
      {"German",
       {"der", "die", "das", "und", "ist", "von", "mit", "ein", "eine",
        "nicht", "für", "auf"}},
      {"Spanish",
       {"el", "la", "los", "las", "de", "y", "es", "una", "un", "en", "por",
        "con", "para", "del"}},
  };
  return kProfiles;
}

// Lower-cased alphabetic tokens of `text`.
std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace

std::vector<std::string> ExtractKeywords(std::string_view text, size_t min_len) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (std::string& tok : Tokenize(text)) {
    if (tok.size() < min_len) continue;
    if (EnglishStopWords().count(tok)) continue;
    tok[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(tok[0])));
    if (seen.insert(tok).second) out.push_back(tok);
  }
  return out;
}

std::string DetectLanguage(std::string_view text) {
  std::vector<std::string> tokens = Tokenize(text);
  if (tokens.empty()) return "";
  const LangProfile* best = nullptr;
  size_t best_hits = 0;
  for (const LangProfile& profile : LanguageProfiles()) {
    size_t hits = 0;
    for (const std::string& tok : tokens) {
      for (const std::string& sw : profile.stopwords) {
        if (tok == sw) {
          ++hits;
          break;
        }
      }
    }
    if (hits > best_hits) {
      best_hits = hits;
      best = &profile;
    }
  }
  return best == nullptr ? "" : best->name;
}

size_t DeriveCounts(AttributeStore* db, const std::vector<AttrStats>& stats,
                    const DerivationOptions& /*options*/) {
  size_t added = 0;
  Dictionary& dict = *db->mutable_dict();
  std::vector<AttrId> direct = db->DirectAttributes();
  for (AttrId a : direct) {
    if (a >= stats.size() || !stats[a].multi_valued()) continue;
    const AttributeTable& src = db->attribute(a);
    AttributeTable table;
    table.name = "count(" + src.name + ")";
    table.origin = AttrOrigin::kCount;
    table.derived_from = a;
    // The CSR offsets are exactly the per-subject value counts.
    for (size_t i = 0; i < src.num_subjects(); ++i) {
      table.AddRow(src.subject(i),
                   dict.InternInteger(static_cast<int64_t>(src.values(i).size())));
    }
    db->AddAttribute(std::move(table));
    ++added;
  }
  return added;
}

size_t DeriveKeywords(AttributeStore* db, const std::vector<AttrStats>& stats,
                      const DerivationOptions& options) {
  size_t added = 0;
  Dictionary& dict = *db->mutable_dict();
  std::vector<AttrId> direct = db->DirectAttributes();
  for (AttrId a : direct) {
    if (a >= stats.size()) continue;
    const AttrStats& st = stats[a];
    if (st.kind != ValueKind::kText) continue;
    if (st.avg_text_length < options.min_text_length_for_keywords) continue;
    const AttributeTable& src = db->attribute(a);
    AttributeTable table;
    table.name = "kwIn(" + src.name + ")";
    table.origin = AttrOrigin::kKeyword;
    table.derived_from = a;
    for (size_t i = 0; i < src.num_subjects(); ++i) {
      TermId s = src.subject(i);
      for (TermId o : src.values(i)) {
        if (dict.KindOf(o) != TermKind::kLiteral) continue;
        // Extract before interning: an intern invalidates LexicalOf's view.
        for (const std::string& kw :
             ExtractKeywords(dict.LexicalOf(o), options.min_keyword_length)) {
          table.AddRow(s, dict.InternString(kw));
          if (table.num_staged() >= options.max_keyword_rows) break;
        }
        if (table.num_staged() >= options.max_keyword_rows) break;
      }
      if (table.num_staged() >= options.max_keyword_rows) break;
    }
    if (table.num_staged() == 0) continue;
    db->AddAttribute(std::move(table));
    ++added;
  }
  return added;
}

size_t DeriveLanguages(AttributeStore* db, const std::vector<AttrStats>& stats,
                       const DerivationOptions& options) {
  size_t added = 0;
  Dictionary& dict = *db->mutable_dict();
  std::vector<AttrId> direct = db->DirectAttributes();
  for (AttrId a : direct) {
    if (a >= stats.size()) continue;
    const AttrStats& st = stats[a];
    if (st.kind != ValueKind::kText) continue;
    if (st.avg_text_length < options.min_text_length_for_keywords) continue;
    const AttributeTable& src = db->attribute(a);
    AttributeTable table;
    table.name = "langOf(" + src.name + ")";
    table.origin = AttrOrigin::kLanguage;
    table.derived_from = a;
    src.ForEachRow([&](TermId s, TermId o) {
      if (dict.KindOf(o) != TermKind::kLiteral) return;
      const std::string_view tag = dict.LanguageOf(o);
      std::string lang;
      if (!tag.empty()) {
        // Explicit language tags beat detection.
        lang = tag == "en"   ? "English"
               : tag == "fr" ? "French"
               : tag == "de" ? "German"
               : tag == "es" ? "Spanish"
                             : std::string(tag);
      } else {
        lang = DetectLanguage(dict.LexicalOf(o));
      }
      if (lang.empty()) return;
      table.AddRow(s, dict.InternString(lang));
    });
    if (table.num_staged() == 0) continue;
    db->AddAttribute(std::move(table));
    ++added;
  }
  return added;
}

size_t DerivePaths(AttributeStore* db, const std::vector<AttrStats>& stats,
                   const DerivationOptions& options) {
  size_t added = 0;
  std::vector<AttrId> direct = db->DirectAttributes();

  for (AttrId p1 : direct) {
    if (p1 >= stats.size() || stats[p1].kind != ValueKind::kReference) continue;
    // References into the registry stay valid across AddAttribute (the store
    // keeps tables in a deque), so no defensive copy of t1 is needed.
    const AttributeTable& t1 = db->attribute(p1);
    for (AttrId p2 : direct) {
      if (added >= options.max_path_attrs) return added;
      if (p2 == p1) {
        // Self-composition (p/p) is allowed but rarely useful; skip to match
        // the paper's length-1 path enumeration over distinct properties.
        continue;
      }
      const AttributeTable& t2 = db->attribute(p2);
      Span<TermId> subj2 = t2.subjects();
      if (subj2.empty()) continue;
      // How many p1 values continue with p2?
      size_t continuing = 0;
      for (TermId o : t1.objects()) {
        if (std::binary_search(subj2.begin(), subj2.end(), o)) ++continuing;
      }
      if (continuing == 0 ||
          static_cast<double>(continuing) < options.min_path_continuation *
                                                static_cast<double>(t1.num_rows())) {
        continue;
      }
      AttributeTable table;
      table.name = t1.name + "/" + t2.name;
      table.origin = AttrOrigin::kPath;
      table.derived_from = p1;
      for (size_t i = 0; i < t1.num_subjects(); ++i) {
        TermId s = t1.subject(i);
        for (TermId mid : t1.values(i)) {
          for (TermId o2 : t2.ValuesOf(mid)) {
            table.AddRow(s, o2);
            if (table.num_staged() >= options.max_path_rows) break;
          }
          if (table.num_staged() >= options.max_path_rows) break;
        }
        if (table.num_staged() >= options.max_path_rows) break;
      }
      if (table.num_staged() == 0) continue;
      db->AddAttribute(std::move(table));
      ++added;
    }
  }
  return added;
}

DerivationReport DeriveAll(AttributeStore* db, const std::vector<AttrStats>& stats,
                           const DerivationOptions& options) {
  DerivationReport report;
  if (options.enable_counts) {
    report.num_count_attrs = DeriveCounts(db, stats, options);
  }
  if (options.enable_keywords) {
    report.num_keyword_attrs = DeriveKeywords(db, stats, options);
  }
  if (options.enable_languages) {
    report.num_language_attrs = DeriveLanguages(db, stats, options);
  }
  if (options.enable_paths) {
    report.num_path_attrs = DerivePaths(db, stats, options);
  }
  return report;
}

}  // namespace spade

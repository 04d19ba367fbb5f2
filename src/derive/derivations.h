#ifndef SPADE_DERIVE_DERIVATIONS_H_
#define SPADE_DERIVE_DERIVATIONS_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/stats/attr_stats.h"
#include "src/store/attribute_store.h"

namespace spade {

/// Options of the Derived Property Enumeration step (Section 3). Defaults
/// mirror the paper's behaviour on the six real graphs.
struct DerivationOptions {
  bool enable_counts = true;
  bool enable_keywords = true;
  bool enable_languages = true;
  bool enable_paths = true;

  /// Text attributes with average length below this are labels, not
  /// descriptions: no keyword/language derivation.
  double min_text_length_for_keywords = 20.0;
  /// Keyword tokens shorter than this are dropped (articles, stop words).
  size_t min_keyword_length = 4;
  /// Cap on derived keyword rows per attribute (guards degenerate text).
  size_t max_keyword_rows = 200000;

  /// Path derivation p1/p2 only applies when p1 is a reference attribute and
  /// at least this fraction of p1's values continue with p2.
  double min_path_continuation = 0.05;
  /// Cap on the number of generated path attributes.
  size_t max_path_attrs = 256;
  /// Cap on rows per generated path attribute.
  size_t max_path_rows = 2000000;
};

/// Statistics of a derivation pass, reported by Table 2's bench.
struct DerivationReport {
  size_t num_count_attrs = 0;
  size_t num_keyword_attrs = 0;
  size_t num_language_attrs = 0;
  size_t num_path_attrs = 0;

  size_t total() const {
    return num_count_attrs + num_keyword_attrs + num_language_attrs +
           num_path_attrs;
  }
};

/// Run every enabled derivation over the database's *direct* attributes,
/// using their offline statistics (parallel array indexed by AttrId covering
/// at least the direct attributes). New attributes are registered in `db`.
DerivationReport DeriveAll(AttributeStore* db, const std::vector<AttrStats>& stats,
                           const DerivationOptions& options);

/// Individual strategies (exposed for focused tests).
size_t DeriveCounts(AttributeStore* db, const std::vector<AttrStats>& stats,
                    const DerivationOptions& options);
size_t DeriveKeywords(AttributeStore* db, const std::vector<AttrStats>& stats,
                      const DerivationOptions& options);
size_t DeriveLanguages(AttributeStore* db, const std::vector<AttrStats>& stats,
                       const DerivationOptions& options);
size_t DerivePaths(AttributeStore* db, const std::vector<AttrStats>& stats,
                   const DerivationOptions& options);

/// Tokenize a text value into keyword tokens: lower-cased alphabetic runs of
/// at least `min_len` characters that are not stop words, capitalized as in
/// the paper's example ("Petroleum", "Production").
std::vector<std::string> ExtractKeywords(std::string_view text, size_t min_len);

/// Heuristic language detection over stop-word hits; returns "English",
/// "French", "German", "Spanish", or "" when undecidable.
std::string DetectLanguage(std::string_view text);

}  // namespace spade

#endif  // SPADE_DERIVE_DERIVATIONS_H_

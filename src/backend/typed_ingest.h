// Typed bulk ingest: WireEvent -> doc-value columns, no JSON middleman.
//
// The JSON route builds one Json tree per event (Event::ToJson), ships it
// through the pipeline, parses it back into columns at Refresh, and keeps
// the tree alive as the row store. The typed route cuts all of
// that out: the tracer ships raw WireEvent records, and at Refresh a
// WireColumnAppender writes each field straight into the sub-shard's
// DocValueColumn cells — one dictionary intern or int64 store per field,
// zero allocations per event on the common path.
//
// The contract that makes this safe is *field-for-field equivalence with
// Event::ToJson*: the appender replicates its presence conditions (fd only
// when the syscall takes one, flags only when non-zero, ...) and value
// encodings exactly, so MaterializeWireDoc() can rebuild the byte-identical
// JSON document from the columns whenever a row-oriented view is needed
// (search hits, snapshots, a generic update-by-query). Every wire-document
// field is a scalar, so the columns are a lossless encoding of the document.
// Correlation keeps rows typed: its file_path is written into the columns in
// place (FilePathColumnWriter) and materialized after the wire fields.
// `backend.typed_ingest=false` keeps the JSON route as the parity oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "backend/doc_values.h"
#include "common/json.h"
#include "tracer/event.h"

namespace dio::backend {

// The wire-document fields, in Event::ToJson insertion order. This is the
// member order of every document either ingest route produces; materializing
// a typed row walks it so rebuilt documents serialize byte-identically.
const std::vector<std::string>& WireDocFields();

// Appends typed rows to one sub-shard's ColumnSet. Column pointers are
// resolved once at construction (std::map nodes don't move), so Append is
// pure array stores plus dictionary interning — call FinishBatch on the
// ColumnSet afterwards, as with AppendDoc.
class WireColumnAppender {
 public:
  explicit WireColumnAppender(ColumnSet* columns);

  // Claims the next slot and writes the record's fields. Mirrors
  // tracer::WireEventToJson field for field; returns the slot position.
  std::size_t Append(const tracer::WireEvent& raw, std::string_view session);

 private:
  void SetInt(DocValueColumn* col, std::size_t pos, std::int64_t v);
  void SetString(DocValueColumn* col, std::size_t pos, std::string_view s);

  ColumnSet* columns_;
  // One cached column per canonical field, in WireDocFields() order.
  std::vector<DocValueColumn*> cols_;
  std::string scratch_;  // dictionary-lookup key buffer (reused, no allocs)
};

// The one field a typed row can gain after ingest: the correlator's resolved
// path (backend/correlation.h). Update-by-query writes it into the row's
// segment as a string column in place, and materialization appends it after
// the wire fields — exactly where the JSON route's Json::Set puts it.
inline constexpr std::string_view kFilePathField = "file_path";

// Rebuilds typed rows of one ColumnSet as JSON documents. The columns are
// resolved once at construction (one per (shard, segment) in a search), so
// Build is one kind-byte read plus one member append per present field.
// Members come out in WireDocFields() order followed by kFilePathField;
// `fields`, when non-empty, keeps only those names (a search's source
// projection) without changing the relative order. The ColumnSet must
// outlive the builder.
class WireDocBuilder {
 public:
  explicit WireDocBuilder(const ColumnSet& columns,
                          std::span<const std::string> fields = {});

  // For rows written by WireColumnAppender (plus an in-place file_path) the
  // full document is byte-identical to the JSON route's document.
  [[nodiscard]] Json Build(std::size_t pos) const;

 private:
  struct Slot {
    const std::string* name;
    const DocValueColumn* col;
  };
  std::vector<Slot> slots_;
};

// One-row convenience over WireDocBuilder (resolves the columns per call).
Json MaterializeWireDoc(const ColumnSet& columns, std::size_t pos);

// Writes the correlator's file_path into the typed rows of one ColumnSet in
// place — no JSON document, no row conversion. Each file_tag dictionary
// ordinal is resolved against `tag_to_path` once, to a file_path dictionary
// ordinal; every later row with that tag is two array stores. The file_path
// column is created on the first resolved row and padded to every slot.
class FilePathColumnWriter {
 public:
  FilePathColumnWriter(ColumnSet* columns,
                       const std::map<std::string, std::string>& tag_to_path);

  // Sets file_path on slot `pos` unless it already has one or its file_tag
  // is unknown; returns whether the slot changed (the callback semantics of
  // FilePathUpdate).
  bool Apply(std::size_t pos);
  // True once the column set changed shape or content: the caller must
  // FinishBatch it and drop its segment's filter cache before readers see it.
  [[nodiscard]] bool changed() const { return changed_; }

 private:
  static constexpr std::int64_t kUnseen = -2;
  static constexpr std::int64_t kUnknownTag = -1;

  ColumnSet* columns_;
  const std::map<std::string, std::string>& tag_to_path_;
  const DocValueColumn* tag_col_;
  DocValueColumn* path_col_;
  std::vector<std::int64_t> path_ord_;  // file_tag ordinal -> file_path ordinal
  bool changed_ = false;
};

}  // namespace dio::backend

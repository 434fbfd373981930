#include "backend/typed_ingest.h"

#include <algorithm>

namespace dio::backend {

namespace {

// Indices into WireDocFields() / WireColumnAppender::cols_.
enum Field : std::size_t {
  kSession = 0,
  kSyscall,
  kCategory,
  kPid,
  kTid,
  kComm,
  kProcName,
  kTimeEnter,
  kTimeExit,
  kDurationNs,
  kRet,
  kCpu,
  kFd,
  kPath,
  kPath2,
  kXattrName,
  kCount,
  kArgOffset,
  kWhence,
  kFlags,
  kMode,
  kFileType,
  kFileOffset,
  kFileTag,
  kTagDev,
  kTagIno,
  kTagTs,
  kNumFields,
};

}  // namespace

const std::vector<std::string>& WireDocFields() {
  static const std::vector<std::string> kFields = {
      "session",    "syscall",     "category",  "pid",        "tid",
      "comm",       "proc_name",   "time_enter", "time_exit", "duration_ns",
      "ret",        "cpu",         "fd",        "path",       "path2",
      "xattr_name", "count",       "arg_offset", "whence",    "flags",
      "mode",       "file_type",   "file_offset", "file_tag", "tag_dev",
      "tag_ino",    "tag_ts"};
  return kFields;
}

WireColumnAppender::WireColumnAppender(ColumnSet* columns)
    : columns_(columns) {
  const std::vector<std::string>& fields = WireDocFields();
  cols_.reserve(fields.size());
  for (const std::string& field : fields) {
    // Eagerly creating every canonical column is benign: an all-kMissing
    // column behaves exactly like an absent one in every query path.
    cols_.push_back(&columns_->TypedColumn(field));
  }
}

void WireColumnAppender::SetInt(DocValueColumn* col, std::size_t pos,
                                std::int64_t v) {
  col->EnsureSlots(pos + 1);
  col->kinds[pos] = static_cast<std::uint8_t>(ValueKind::kInt);
  col->ints[pos] = v;
  // Json int members carry their double shadow for cross-type numeric
  // equality and sorting; mirror ColumnSet::DecodeMember.
  col->dbls[pos] = static_cast<double>(v);
}

void WireColumnAppender::SetString(DocValueColumn* col, std::size_t pos,
                                   std::string_view s) {
  col->EnsureSlots(pos + 1);
  scratch_.assign(s.data(), s.size());
  col->kinds[pos] = static_cast<std::uint8_t>(ValueKind::kString);
  col->ints[pos] = static_cast<std::int64_t>(col->Intern(scratch_));
}

std::size_t WireColumnAppender::Append(const tracer::WireEvent& raw,
                                       std::string_view session) {
  const std::size_t pos = columns_->BeginTypedRow();
  const auto nr = static_cast<os::SyscallNr>(raw.nr);
  const os::SyscallDescriptor& desc = os::Describe(nr);

  // Unconditional fields — present in every wire document.
  SetString(cols_[kSession], pos, session);
  SetString(cols_[kSyscall], pos, desc.name);
  SetString(cols_[kCategory], pos, os::CategoryName(desc.category));
  SetInt(cols_[kPid], pos, raw.pid);
  SetInt(cols_[kTid], pos, raw.tid);
  SetString(cols_[kComm], pos, {raw.comm, raw.comm_len});
  SetString(cols_[kProcName], pos, {raw.proc_name, raw.proc_name_len});
  SetInt(cols_[kTimeEnter], pos, raw.time_enter);
  SetInt(cols_[kTimeExit], pos, raw.time_exit);
  SetInt(cols_[kDurationNs], pos, raw.time_exit - raw.time_enter);
  SetInt(cols_[kRet], pos, raw.ret);
  SetInt(cols_[kCpu], pos, raw.cpu);

  // Conditional fields — the exact WireEventToJson presence rules; a field
  // not written here stays kMissing, matching a document without the member.
  if (raw.fd >= 0 && desc.takes_fd) SetInt(cols_[kFd], pos, raw.fd);
  if (raw.path_len > 0) SetString(cols_[kPath], pos, {raw.path, raw.path_len});
  if (raw.path2_len > 0) {
    SetString(cols_[kPath2], pos, {raw.path2, raw.path2_len});
  }
  if (raw.xattr_len > 0) {
    SetString(cols_[kXattrName], pos, {raw.xattr_name, raw.xattr_len});
  }
  if (desc.data_related || raw.count > 0) {
    SetInt(cols_[kCount], pos, static_cast<std::int64_t>(raw.count));
  }
  if (raw.arg_offset >= 0) SetInt(cols_[kArgOffset], pos, raw.arg_offset);
  if (raw.whence >= 0) SetInt(cols_[kWhence], pos, raw.whence);
  if (raw.flags != 0) SetInt(cols_[kFlags], pos, raw.flags);
  if (raw.mode != 0) SetInt(cols_[kMode], pos, raw.mode);
  if (raw.file_type != static_cast<std::uint8_t>(os::FileType::kUnknown)) {
    SetString(cols_[kFileType], pos,
              os::FileTypeName(static_cast<os::FileType>(raw.file_type)));
  }
  if (raw.file_offset >= 0) SetInt(cols_[kFileOffset], pos, raw.file_offset);
  if (raw.tag_valid != 0) {
    tracer::FileTag tag;
    tag.valid = true;
    tag.dev = raw.tag_dev;
    tag.ino = raw.tag_ino;
    tag.first_access_ts = raw.tag_ts;
    SetString(cols_[kFileTag], pos, tag.ToKey());
    SetInt(cols_[kTagDev], pos, static_cast<std::int64_t>(raw.tag_dev));
    SetInt(cols_[kTagIno], pos, static_cast<std::int64_t>(raw.tag_ino));
    SetInt(cols_[kTagTs], pos, raw.tag_ts);
  }
  return pos;
}

WireDocBuilder::WireDocBuilder(const ColumnSet& columns,
                               std::span<const std::string> fields) {
  static const std::string kFilePath(kFilePathField);
  const auto wanted = [fields](const std::string& name) {
    return fields.empty() ||
           std::find(fields.begin(), fields.end(), name) != fields.end();
  };
  const std::vector<std::string>& wire_fields = WireDocFields();
  slots_.reserve(wire_fields.size() + 1);
  const auto add = [&](const std::string& name) {
    if (!wanted(name)) return;
    if (const DocValueColumn* col = columns.Find(name)) {
      slots_.push_back({&name, col});
    }
  };
  for (const std::string& name : wire_fields) add(name);
  add(kFilePath);
}

Json WireDocBuilder::Build(std::size_t pos) const {
  // Field names are distinct, so members are appended directly instead of
  // through Json::Set's duplicate scan.
  JsonObject members;
  members.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const DocValueColumn& col = *slot.col;
    if (col.kinds.size() <= pos) continue;
    switch (col.kind(pos)) {
      case ValueKind::kInt:
        members.emplace_back(*slot.name, col.ints[pos]);
        break;
      case ValueKind::kString:
        members.emplace_back(*slot.name, col.str(pos));
        break;
      case ValueKind::kDouble:
        members.emplace_back(*slot.name, col.dbls[pos]);
        break;
      case ValueKind::kBool:
        members.emplace_back(*slot.name, col.ints[pos] != 0);
        break;
      case ValueKind::kMissing:
      case ValueKind::kOther:  // never written by the typed appender
        break;
    }
  }
  return Json(std::move(members));
}

Json MaterializeWireDoc(const ColumnSet& columns, std::size_t pos) {
  return WireDocBuilder(columns).Build(pos);
}

FilePathColumnWriter::FilePathColumnWriter(
    ColumnSet* columns, const std::map<std::string, std::string>& tag_to_path)
    : columns_(columns),
      tag_to_path_(tag_to_path),
      tag_col_(columns->Find(WireDocFields()[kFileTag])),
      // An existing column is adopted (TypedColumn creates nothing then);
      // a missing one is created only once a row actually resolves.
      path_col_(columns->Find(kFilePathField) != nullptr
                    ? &columns->TypedColumn(std::string(kFilePathField))
                    : nullptr) {
  if (tag_col_ != nullptr) path_ord_.assign(tag_col_->dict.size(), kUnseen);
}

bool FilePathColumnWriter::Apply(std::size_t pos) {
  if (tag_col_ == nullptr || tag_col_->kinds.size() <= pos ||
      tag_col_->kind(pos) != ValueKind::kString) {
    return false;
  }
  if (path_col_ != nullptr && path_col_->kinds.size() > pos &&
      path_col_->kind(pos) != ValueKind::kMissing) {
    return false;  // already correlated
  }
  const auto tag_ord = static_cast<std::size_t>(tag_col_->ints[pos]);
  std::int64_t& ord = path_ord_[tag_ord];
  if (ord == kUnseen) {
    auto it = tag_to_path_.find(tag_col_->dict[tag_ord]);
    if (it == tag_to_path_.end()) {
      ord = kUnknownTag;
    } else {
      if (path_col_ == nullptr) {
        path_col_ = &columns_->TypedColumn(std::string(kFilePathField));
        changed_ = true;
      }
      ord = path_col_->Intern(it->second);
    }
  }
  if (ord == kUnknownTag) return false;
  path_col_->EnsureSlots(columns_->num_docs());
  path_col_->kinds[pos] = static_cast<std::uint8_t>(ValueKind::kString);
  path_col_->ints[pos] = ord;
  changed_ = true;
  return true;
}

}  // namespace dio::backend

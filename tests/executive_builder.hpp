// Hand-built executives for tests. The builder owns the name table the
// instructions index, so a test writes its buffers, media and operations
// as text:
//
//   const aaa::Executive e = ExecutiveBuilder()
//                                .program("A")
//                                .instr(aaa::MacroOp::Send, "x", "BUS", 0)
//                                .program("B")
//                                .instr(aaa::MacroOp::Recv, "x", "BUS", 10)
//                                .build();
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "aaa/macrocode.hpp"
#include "util/interner.hpp"

namespace pdr {

class ExecutiveBuilder {
 public:
  /// Starts the next program; instr() appends to it.
  ExecutiveBuilder& program(std::string resource, bool is_medium = false) {
    aaa::MacroProgram p;
    p.resource = std::move(resource);
    p.is_medium = is_medium;
    p.names = names_;
    executive_.programs.push_back(std::move(p));
    return *this;
  }

  ExecutiveBuilder& instr(aaa::MacroOp op, std::string_view what, std::string_view with = "",
                          TimeNs at = 0) {
    aaa::MacroInstr mi;
    mi.op = op;
    mi.what = names_->intern(what);
    mi.with = names_->intern(with);
    mi.at = at;
    executive_.programs.back().body.push_back(mi);
    return *this;
  }

  aaa::Executive build() const {
    aaa::Executive executive = executive_;
    executive.names = names_;
    return executive;
  }

 private:
  std::shared_ptr<util::Interner> names_ = std::make_shared<util::Interner>();
  aaa::Executive executive_;
};

}  // namespace pdr

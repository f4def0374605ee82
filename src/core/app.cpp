#include "core/app.h"

#include <stdexcept>

namespace beehive {

App& AppSet::add(std::unique_ptr<App> app) {
  for (const auto& existing : apps_) {
    if (existing->id() == app->id()) {
      throw std::invalid_argument("duplicate app name/id: " + app->name());
    }
  }
  apps_.push_back(std::move(app));
  return *apps_.back();
}

App* AppSet::find(AppId id) const {
  for (const auto& app : apps_) {
    if (app->id() == id) return app.get();
  }
  return nullptr;
}

App* AppSet::find_by_name(std::string_view name) const {
  for (const auto& app : apps_) {
    if (app->name() == name) return app.get();
  }
  return nullptr;
}

}  // namespace beehive

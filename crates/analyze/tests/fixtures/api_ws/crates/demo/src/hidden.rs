pub struct Reexported;

pub struct NotReexported;

impl NotReexported {
    pub fn unreachable_method(&self) {}
}

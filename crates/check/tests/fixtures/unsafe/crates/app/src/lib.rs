//! no-unsafe fixture: the keyword where it is code, beside the places it is
//! only text.

pub struct Raw(*const u8);

pub fn first(r: &Raw) -> u8 {
    unsafe { *r.0 }
}

pub unsafe fn second(r: &Raw) -> u8 {
    *r.0.add(1)
}

unsafe impl Send for Raw {}

// An unsafe word in a comment is not code.
pub fn describe() -> &'static str {
    "unsafe in a string literal is not code either" // nor after one, unsafe
}

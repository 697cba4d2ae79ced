pub struct Square {
    pub side: u32,
}

impl Square {
    pub fn area(&self) -> u32 {
        self.side * self.side
    }

    fn private_helper(&self) {}
}

impl Default for Square {
    fn default() -> Self {
        Square { side: 1 }
    }
}

pub const SIDES: u32 = 4;
